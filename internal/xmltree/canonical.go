package xmltree

import (
	"io"
	"strings"
)

// WriteCanonical serializes the subtree to w in canonical form: no
// indentation or inter-element whitespace, empty elements rendered as
// <a></a> (never <a/>), adjacent text nodes merged, empty text nodes
// dropped, and all character data escaped. Two trees are Equal up to
// text-node splitting if and only if their canonical serializations are
// byte-identical, which makes the form suitable for differential
// comparison and golden files. The data model carries no attributes
// (Parse drops them), so attribute ordering never arises; canonical
// output is therefore fully determined by structure and PCDATA.
func (n *Node) WriteCanonical(w io.Writer) error {
	sw := &stickyWriter{w: w}
	n.writeCanonical(sw)
	return sw.err
}

// stickyWriter remembers the first write error so the recursion can stay
// unconditional.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) WriteString(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

func (n *Node) writeCanonical(w *stickyWriter) {
	if n.IsText() {
		if n.Text != "" {
			w.WriteString(string(appendEscaped(nil, n.Text)))
		}
		return
	}
	w.WriteString("<" + n.Label + ">")
	// Merge adjacent text children so <a>x</a> built from one "x" node and
	// from "x" split across two nodes canonicalize identically. Escaping
	// each fragment separately is safe: escaping is per-character.
	for _, c := range n.Children {
		c.writeCanonical(w)
	}
	w.WriteString("</" + n.Label + ">")
}

// Canonical returns the canonical serialization of the subtree as a
// string. See WriteCanonical.
func (n *Node) Canonical() string {
	var b strings.Builder
	_ = n.WriteCanonical(&b) // strings.Builder never fails
	return b.String()
}
