package xmltree

import (
	"encoding/xml"
	"io"
)

// ChunkSize is the write size of a streaming Encoder: once it has
// buffered this many bytes, they go to its writer in one write.
const ChunkSize = 32 << 10

// Encoder serializes a document handed to it as events — Open and Close
// bracket an element with element content, Leaf is an element whose only
// child is text, Empty a childless element — indented two spaces per
// level, with no intermediate strings. It buffers the bytes and hands
// them to W each time it holds ChunkSize of them; the first write error
// drops all later output. Node.WriteIndented drives it too, so there is
// one serializer.
type Encoder struct {
	W     io.Writer
	buf   []byte
	err   error
	n     int64 // bytes written to W
	depth int
}

// Open starts an element with element content.
func (e *Encoder) Open(label string) {
	e.indent()
	e.put("<", label, ">\n")
	e.depth++
}

// Close ends the element the matching Open started.
func (e *Encoder) Close(label string) {
	e.depth--
	e.indent()
	e.put("</", label, ">\n")
	e.spill()
}

// Leaf writes an element whose only child is text, on one line.
func (e *Encoder) Leaf(label, text string) {
	e.indent()
	e.put("<", label, ">")
	e.buf = appendEscaped(e.buf, text)
	e.put("</", label, ">\n")
	e.spill()
}

// Empty writes a childless element.
func (e *Encoder) Empty(label string) {
	e.indent()
	e.put("<", label, "/>\n")
	e.spill()
}

// Text writes a text node that has element siblings, on its own line.
func (e *Encoder) Text(text string) {
	e.indent()
	e.buf = append(appendEscaped(e.buf, text), '\n')
	e.spill()
}

// Flush writes what is buffered to W and returns the number of bytes
// written to W in all and the first write error.
func (e *Encoder) Flush() (int64, error) {
	if e.W != nil && len(e.buf) > 0 {
		e.write()
	}
	return e.n, e.err
}

func (e *Encoder) put(pre, label, post string) {
	e.buf = append(append(append(e.buf, pre...), label...), post...)
}

const spaces = "                                "

func (e *Encoder) indent() {
	for n := 2 * e.depth; n > 0; n -= len(spaces) {
		e.buf = append(e.buf, spaces[:min(n, len(spaces))]...)
	}
}

func (e *Encoder) spill() {
	if e.W != nil && len(e.buf) >= ChunkSize {
		e.write()
	}
}

func (e *Encoder) write() {
	if e.err == nil {
		var n int
		n, e.err = e.W.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
}

// appendEscaped appends s escaped as character data. Printable ASCII
// other than the XML metacharacters goes through as it is; anything else
// takes encoding/xml's escaper, so the bytes are exactly its output (tab,
// CR and LF as character references, invalid UTF-8 as U+FFFD).
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ' || c > '~', c == '&', c == '<', c == '>', c == '"', c == '\'':
			w := appender{b}
			xml.EscapeText(&w, []byte(s)) // appender never fails
			return w.b
		}
	}
	return append(b, s...)
}

type appender struct{ b []byte }

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// Builder builds the tree of a document handed to it as the events an
// Encoder takes.
type Builder struct {
	root *Node
	open []*Node
}

// Open starts an element with element content.
func (b *Builder) Open(label string) { b.open = append(b.open, b.add(label)) }

// Close ends the innermost open element.
func (b *Builder) Close(string) { b.open = b.open[:len(b.open)-1] }

// Leaf adds an element with one text child.
func (b *Builder) Leaf(label, text string) { b.add(label).AppendText(text) }

// Empty adds a childless element.
func (b *Builder) Empty(label string) { b.add(label) }

// add attaches a new element under the innermost open one, or makes it
// the root.
func (b *Builder) add(label string) *Node {
	n := NewElement(label)
	if len(b.open) == 0 {
		b.root = n
	} else {
		b.open[len(b.open)-1].AppendChild(n)
	}
	return n
}

// Root returns the tree built so far.
func (b *Builder) Root() *Node { return b.root }
