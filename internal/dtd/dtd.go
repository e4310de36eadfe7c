// Package dtd models Document Type Definitions as used by AIGs: a set of
// element types, a production per type, and a distinguished root type.
//
// The package supports two levels of generality, mirroring §2 of the
// paper. Parsed DTDs may use arbitrary regular-expression content models
// (sequence, choice, star, plus, optional, PCDATA). Simplify converts a
// general DTD into the paper's restricted form
//
//	α ::= S | ε | B1, ..., Bn | B1 + ... + Bn | B*
//
// in linear time by introducing entity element types, and Conformance
// checking validates an XML tree against either form via a Glushkov-style
// NFA per content model.
package dtd

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/srcpos"
)

// TextType is the pseudo element type S denoting PCDATA in the simplified
// form.
const TextType = "#PCDATA"

// ProdKind enumerates the simplified production forms of §2.
type ProdKind uint8

// The simplified production forms.
const (
	ProdText   ProdKind = iota // A -> S
	ProdEmpty                  // A -> ε
	ProdSeq                    // A -> B1, ..., Bn
	ProdChoice                 // A -> B1 + ... + Bn
	ProdStar                   // A -> B*
)

func (k ProdKind) String() string {
	switch k {
	case ProdText:
		return "text"
	case ProdEmpty:
		return "empty"
	case ProdSeq:
		return "sequence"
	case ProdChoice:
		return "choice"
	case ProdStar:
		return "star"
	default:
		return fmt.Sprintf("prodkind(%d)", uint8(k))
	}
}

// Production is a simplified content model.
type Production struct {
	Kind     ProdKind
	Children []string // element type names; empty for Text/Empty, one for Star
}

// String renders the production body in DTD-ish syntax.
func (p Production) String() string {
	switch p.Kind {
	case ProdText:
		return "(#PCDATA)"
	case ProdEmpty:
		return "EMPTY"
	case ProdSeq:
		return "(" + strings.Join(p.Children, ", ") + ")"
	case ProdChoice:
		return "(" + strings.Join(p.Children, " | ") + ")"
	case ProdStar:
		return "(" + p.Children[0] + "*)"
	default:
		return "<bad production>"
	}
}

// DTD is a simplified-form DTD: D = (Ele, P, r).
type DTD struct {
	Root  string
	Prods map[string]Production
	// Entities lists the synthetic element types introduced by Simplify,
	// which are erased again when converting documents back (§2, fact (2)).
	Entities map[string]bool
	// Pos records where each element type was declared in the source DTD
	// text, when the DTD came from a parser. Entity types inherit the
	// position of the element whose content model spawned them.
	// Programmatically built DTDs leave it empty.
	Pos map[string]srcpos.Pos
	// Decl holds each declared element's general content model as the
	// source DTD text wrote it, when the DTD came from a parser. Define
	// drops an element's entry, which then no longer describes its
	// production. String prints declared elements from it, so the text of
	// a parsed DTD names no entity type.
	Decl map[string]Regex
}

// New creates an empty DTD with the given root type. Productions are added
// with Define.
func New(root string) *DTD {
	return &DTD{
		Root:     root,
		Prods:    make(map[string]Production),
		Entities: make(map[string]bool),
		Pos:      make(map[string]srcpos.Pos),
	}
}

// Define sets the production of an element type.
func (d *DTD) Define(name string, p Production) {
	d.Prods[name] = p
	delete(d.Decl, name)
}

// DefineText declares A -> S.
func (d *DTD) DefineText(name string) { d.Define(name, Production{Kind: ProdText}) }

// DefineEmpty declares A -> ε.
func (d *DTD) DefineEmpty(name string) { d.Define(name, Production{Kind: ProdEmpty}) }

// DefineSeq declares A -> B1, ..., Bn.
func (d *DTD) DefineSeq(name string, children ...string) {
	d.Define(name, Production{Kind: ProdSeq, Children: children})
}

// DefineChoice declares A -> B1 + ... + Bn.
func (d *DTD) DefineChoice(name string, children ...string) {
	d.Define(name, Production{Kind: ProdChoice, Children: children})
}

// DefineStar declares A -> B*.
func (d *DTD) DefineStar(name, child string) {
	d.Define(name, Production{Kind: ProdStar, Children: []string{child}})
}

// Types returns the element type names in sorted order.
func (d *DTD) Types() []string {
	out := make([]string, 0, len(d.Prods))
	for n := range d.Prods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Production returns the production of the given type and whether it is
// defined.
func (d *DTD) Production(name string) (Production, bool) {
	p, ok := d.Prods[name]
	return p, ok
}

// Validate checks structural sanity: the root is defined, every referenced
// child type is defined, and production shapes are legal.
func (d *DTD) Validate() error {
	if d.Root == "" {
		return fmt.Errorf("dtd: no root type")
	}
	if _, ok := d.Prods[d.Root]; !ok {
		return fmt.Errorf("dtd: root type %q is not defined", d.Root)
	}
	for name, p := range d.Prods {
		switch p.Kind {
		case ProdText, ProdEmpty:
			if len(p.Children) != 0 {
				return fmt.Errorf("dtd: %s production of %q must have no children", p.Kind, name)
			}
		case ProdStar:
			if len(p.Children) != 1 {
				return fmt.Errorf("dtd: star production of %q must have exactly one child", name)
			}
		case ProdSeq, ProdChoice:
			if len(p.Children) == 0 {
				return fmt.Errorf("dtd: %s production of %q must have children", p.Kind, name)
			}
		default:
			return fmt.Errorf("dtd: %q has invalid production kind %d", name, p.Kind)
		}
		for _, c := range p.Children {
			if _, ok := d.Prods[c]; !ok {
				return fmt.Errorf("dtd: %q references undefined type %q", name, c)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the DTD.
func (d *DTD) Clone() *DTD {
	out := New(d.Root)
	for n, p := range d.Prods {
		out.Prods[n] = Production{Kind: p.Kind, Children: append([]string(nil), p.Children...)}
	}
	for n := range d.Entities {
		out.Entities[n] = true
	}
	for n, p := range d.Pos {
		out.Pos[n] = p
	}
	out.Decl = maps.Clone(d.Decl)
	return out
}

// String renders the DTD as element declarations in deterministic order,
// root first. A declared element is written with its content model as
// declared; a parsed DTD's entity types are then implied and omitted.
func (d *DTD) String() string {
	var b strings.Builder
	write := func(name string) {
		if r, ok := d.Decl[name]; ok {
			fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, contentString(r))
		} else if len(d.Decl) == 0 || !d.Entities[name] {
			fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, d.Prods[name].String())
		}
	}
	if _, ok := d.Prods[d.Root]; ok {
		write(d.Root)
	}
	for _, n := range d.Types() {
		if n != d.Root {
			write(n)
		}
	}
	return b.String()
}

// Reachable returns the set of element types reachable from the root.
func (d *DTD) Reachable() map[string]bool {
	seen := make(map[string]bool)
	var visit func(string)
	visit = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, c := range d.Prods[n].Children {
			visit(c)
		}
	}
	if _, ok := d.Prods[d.Root]; ok {
		visit(d.Root)
	}
	return seen
}

// RecursiveTypes returns the set of element types that participate in a
// cycle of the type-reference graph (i.e. are recursively defined, like
// treatment/procedure in the paper's example).
func (d *DTD) RecursiveTypes() map[string]bool {
	// Tarjan SCC; types in a component of size > 1, or with a self-loop,
	// are recursive.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	recursive := make(map[string]bool)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		selfLoop := false
		for _, w := range d.Prods[v].Children {
			if w == v {
				selfLoop = true
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 || selfLoop {
				for _, w := range comp {
					recursive[w] = true
				}
			}
		}
	}
	for _, n := range d.Types() {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return recursive
}

// IsRecursive reports whether any reachable type is recursively defined.
func (d *DTD) IsRecursive() bool {
	rec := d.RecursiveTypes()
	for n := range d.Reachable() {
		if rec[n] {
			return true
		}
	}
	return false
}
