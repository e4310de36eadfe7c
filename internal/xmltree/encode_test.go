package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// refWriteIndented is the fmt-based serializer WriteIndented replaced,
// kept as the reference the Encoder must match byte for byte.
func refWriteIndented(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	if n.IsText() {
		_, err := fmt.Fprintf(w, "%s%s\n", indent, refEscape(n.Text))
		return err
	}
	if len(n.Children) == 0 {
		_, err := fmt.Fprintf(w, "%s<%s/>\n", indent, n.Label)
		return err
	}
	if len(n.Children) == 1 && n.Children[0].IsText() {
		_, err := fmt.Fprintf(w, "%s<%s>%s</%s>\n", indent, n.Label, refEscape(n.Children[0].Text), n.Label)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s>\n", indent, n.Label); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := refWriteIndented(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Label)
	return err
}

func refEscape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

// requireReference fails unless WriteIndented and String both produce
// the reference serializer's bytes for n.
func requireReference(t *testing.T, n *Node) {
	t.Helper()
	var want, got bytes.Buffer
	if err := refWriteIndented(&want, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteIndented(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteIndented differs from the reference:\ngot  %q\nwant %q", got.Bytes(), want.Bytes())
	}
	if n.String() != want.String() {
		t.Fatalf("String differs from the reference:\ngot  %q\nwant %q", n.String(), want.Bytes())
	}
}

// fuzzTree decodes a tree from fuzz input. Each byte of shape is one
// step: open a child element, close the current one, add a childless
// element, or add a text child taken from the next '|'-separated piece
// of texts. Every case the serializer distinguishes is reachable: text
// leaves (empty ones included), childless elements, deep nesting and
// text beside elements.
func fuzzTree(shape []byte, texts string) *Node {
	labels := []string{"a", "b", "patient", "x_1"}
	pieces := strings.Split(texts, "|")
	root := NewElement("r")
	cur := root
	for i, b := range shape {
		label := labels[int(b>>2)%len(labels)]
		switch b & 3 {
		case 0:
			cur = cur.AppendElement(label)
		case 1:
			if cur.Parent != nil {
				cur = cur.Parent
			}
		case 2:
			cur.AppendText(pieces[i%len(pieces)])
		case 3:
			cur.AppendElement(label)
		}
	}
	return root
}

var fuzzTexts = []string{
	"plain|a&b<c>d\"e'f",
	"tab\there|cr\rlf\n|",
	"bad\xffutf8|￾|snow☃man|\x01ctl",
	"|", // empty text: <x></x>
}

func TestWriteIndentedMatchesReference(t *testing.T) {
	requireReference(t, buildSample())
	for _, texts := range fuzzTexts {
		requireReference(t, fuzzTree([]byte{0, 2, 1, 3, 0, 0, 2, 2, 1, 6, 1, 0, 2, 1, 0, 1}, texts))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		requireReference(t, randomTree(r, 4))
	}
}

func FuzzWriteIndented(f *testing.F) {
	for i, texts := range fuzzTexts {
		f.Add([]byte{0, 2, 1, 3, 0, 4, 2, 1, 2, byte(i)}, texts)
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}, "deep")
	f.Fuzz(func(t *testing.T, shape []byte, texts string) {
		requireReference(t, fuzzTree(shape, texts))
	})
}

// chunkRecorder records the size of every write it receives.
type chunkRecorder struct {
	bytes.Buffer
	writes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// TestEncoderStreamsInChunks checks a streamed document arrives in
// writes of at least ChunkSize bytes (the last excepted) with the same
// bytes as the buffered form.
func TestEncoderStreamsInChunks(t *testing.T) {
	root := NewElement("report")
	for i := 0; i < 3000; i++ {
		p := root.AppendElement("patient")
		p.AppendElement("SSN").AppendText(fmt.Sprint("s", i))
		p.AppendElement("bill")
	}
	var w chunkRecorder
	if err := root.WriteIndented(&w); err != nil {
		t.Fatal(err)
	}
	if w.String() != root.String() {
		t.Fatal("streamed bytes differ from the buffered serialization")
	}
	if len(w.writes) < 2 {
		t.Fatalf("%d writes for %d bytes, want several chunks", len(w.writes), w.Len())
	}
	for _, n := range w.writes[:len(w.writes)-1] {
		if n < ChunkSize {
			t.Fatalf("write sizes %v: a write before the last is under %d bytes", w.writes, ChunkSize)
		}
	}
}
