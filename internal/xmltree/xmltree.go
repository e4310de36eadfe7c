// Package xmltree provides the ordered XML document model that AIG
// evaluation produces: element nodes labeled with a DTD element type and
// text (PCDATA) leaves. It includes a builder API, an indenting
// serializer, a parser, structural equality, and traversal helpers used by
// the constraint checker.
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// NodeKind discriminates element and text nodes.
type NodeKind uint8

// The node kinds.
const (
	ElementNode NodeKind = iota
	TextNode
)

// Node is a node of an XML tree. Element nodes have a Label and ordered
// Children; text nodes carry Text and are leaves.
type Node struct {
	Kind     NodeKind
	Label    string // element type; empty for text nodes
	Text     string // PCDATA; empty for element nodes
	Children []*Node
	Parent   *Node
}

// NewElement creates an element node with the given label.
func NewElement(label string) *Node { return &Node{Kind: ElementNode, Label: label} }

// NewText creates a text node with the given PCDATA.
func NewText(text string) *Node { return &Node{Kind: TextNode, Text: text} }

// AppendChild attaches child as the last child of n and returns child.
func (n *Node) AppendChild(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// AppendElement creates, attaches and returns a new element child.
func (n *Node) AppendElement(label string) *Node {
	return n.AppendChild(NewElement(label))
}

// AppendText creates, attaches and returns a new text child.
func (n *Node) AppendText(text string) *Node {
	return n.AppendChild(NewText(text))
}

// IsElement reports whether n is an element node.
func (n *Node) IsElement() bool { return n.Kind == ElementNode }

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Kind == TextNode }

// StringValue returns the concatenation of all text under n, in document
// order — the value the paper's constraints compare.
func (n *Node) StringValue() string {
	if n.IsText() {
		return n.Text
	}
	var b strings.Builder
	n.Walk(func(d *Node) bool {
		if d.IsText() {
			b.WriteString(d.Text)
		}
		return true
	})
	return b.String()
}

// Walk visits n and its descendants in document order. The visitor
// returns false to prune the subtree below the visited node.
func (n *Node) Walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Elements returns the element children of n, in order.
func (n *Node) Elements() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.IsElement() {
			out = append(out, c)
		}
	}
	return out
}

// Descendants returns every descendant element of n (excluding n itself)
// with the given label, in document order.
func (n *Node) Descendants(label string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		c.Walk(func(d *Node) bool {
			if d.IsElement() && d.Label == label {
				out = append(out, d)
			}
			return true
		})
	}
	return out
}

// Child returns the first element child with the given label, or nil.
func (n *Node) Child(label string) *Node {
	for _, c := range n.Children {
		if c.IsElement() && c.Label == label {
			return c
		}
	}
	return nil
}

// CountNodes returns the number of nodes in the subtree rooted at n,
// including n.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// Depth returns the height of the subtree rooted at n (a leaf has depth 1).
func (n *Node) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Path returns the labels from the root down to n, for error messages.
func (n *Node) Path() string {
	var labels []string
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.IsElement() {
			labels = append(labels, cur.Label)
		} else {
			labels = append(labels, "#text")
		}
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return "/" + strings.Join(labels, "/")
}

// Equal reports deep structural equality: same kinds, labels, text, and
// recursively equal child lists in the same order.
func (n *Node) Equal(m *Node) bool {
	if n.Kind != m.Kind || n.Label != m.Label || n.Text != m.Text || len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the subtree rooted at n, with a nil parent.
func (n *Node) Clone() *Node {
	out := &Node{Kind: n.Kind, Label: n.Label, Text: n.Text}
	for _, c := range n.Children {
		out.AppendChild(c.Clone())
	}
	return out
}

// WriteIndented serializes the subtree to w with two-space indentation,
// through the same Encoder the mediator's tagger streams with. Elements
// whose only child is a text node are rendered on one line.
func (n *Node) WriteIndented(w io.Writer) error {
	e := Encoder{W: w, buf: make([]byte, 0, min(n.size(0), bufSize))}
	n.encode(&e)
	_, err := e.Flush()
	return err
}

// size is the length of the subtree's serialization at the given depth,
// but for what escaping adds.
func (n *Node) size(depth int) int {
	in := 2 * depth
	switch {
	case n.IsText():
		return in + len(n.Text) + 1
	case len(n.Children) == 0:
		return in + len(n.Label) + 4
	case len(n.Children) == 1 && n.Children[0].IsText():
		return in + 2*len(n.Label) + len(n.Children[0].Text) + 6
	}
	sz := 2*in + 2*len(n.Label) + 7
	for _, c := range n.Children {
		sz += c.size(depth + 1)
	}
	return sz
}

func (n *Node) encode(e *Encoder) {
	switch {
	case n.IsText():
		e.Text(n.Text)
	case len(n.Children) == 0:
		e.Empty(n.Label)
	case len(n.Children) == 1 && n.Children[0].IsText():
		e.Leaf(n.Label, n.Children[0].Text)
	default:
		e.Open(n.Label)
		for _, c := range n.Children {
			c.encode(e)
		}
		e.Close(n.Label)
	}
}

// String returns the indented serialization of the subtree.
func (n *Node) String() string {
	e := Encoder{buf: make([]byte, 0, n.size(0))}
	n.encode(&e)
	return string(e.buf)
}

// Parse reads an XML document from r into a tree. Whitespace-only text
// between elements is dropped (it is serialization indentation, not
// PCDATA); other character data becomes text nodes. Attributes, comments
// and processing instructions are ignored, matching the attribute-free
// data model of the paper.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %v", err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			node := NewElement(tok.Name.Local)
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = node
			} else {
				stack[len(stack)-1].AppendChild(node)
			}
			stack = append(stack, node)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", tok.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(tok)
			if strings.TrimSpace(text) == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: text outside root element")
			}
			stack[len(stack)-1].AppendText(strings.TrimSpace(text))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed elements")
	}
	return root, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}
