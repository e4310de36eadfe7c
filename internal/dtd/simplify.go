package dtd

import (
	"fmt"
	"maps"
	"sort"
)

// Simplify converts a general DTD into the paper's restricted form
//
//	α ::= S | ε | B1, ..., Bn | B1 + ... + Bn | B*
//
// by introducing entity element types for nested sub-expressions (§2,
// fact (1)). The conversion is linear in the size of the input: every
// sub-expression is visited once and produces at most one entity type.
// Entity names are derived from the owning element ("patient#1") so they
// cannot collide with XML element names, and are recorded in the result's
// Entities set for later erasure.
func Simplify(g *General) (*DTD, error) {
	d := New(g.Root)
	s := &simplifier{g: g, d: d}
	names := append([]string(nil), g.Order...)
	if len(names) == 0 {
		for n := range g.Content {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		s.owner = name
		if err := s.defineAs(name, g.Content[name]); err != nil {
			return nil, err
		}
		if p, ok := g.Pos[name]; ok {
			d.Pos[name] = p
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dtd: simplification produced invalid DTD: %v", err)
	}
	d.Decl = maps.Clone(g.Content)
	return d, nil
}

type simplifier struct {
	g     *General
	d     *DTD
	next  int
	owner string // element whose declaration is being simplified
}

// entity creates a fresh entity element type defined by r and returns its
// name. The entity inherits the source position of the declaration that
// spawned it.
func (s *simplifier) entity(owner string, r Regex) (string, error) {
	s.next++
	name := fmt.Sprintf("%s#%d", owner, s.next)
	s.d.Entities[name] = true
	if p, ok := s.g.Pos[s.owner]; ok {
		s.d.Pos[name] = p
	}
	if err := s.defineAs(name, r); err != nil {
		return "", err
	}
	return name, nil
}

// lift returns an element-type name whose language is exactly r: the name
// itself when r is already a name reference, otherwise a fresh entity.
func (s *simplifier) lift(owner string, r Regex) (string, error) {
	if n, ok := r.(RName); ok {
		return n.Name, nil
	}
	return s.entity(owner, r)
}

// defineAs installs a simplified production for name matching r.
func (s *simplifier) defineAs(name string, r Regex) error {
	switch r := r.(type) {
	case RText:
		s.d.DefineText(name)
	case REmpty:
		s.d.DefineEmpty(name)
	case RName:
		s.d.DefineSeq(name, r.Name)
	case RSeq:
		children := make([]string, len(r.Items))
		for i, item := range r.Items {
			c, err := s.lift(name, item)
			if err != nil {
				return err
			}
			children[i] = c
		}
		s.d.DefineSeq(name, children...)
	case RChoice:
		children := make([]string, len(r.Items))
		for i, item := range r.Items {
			c, err := s.lift(name, item)
			if err != nil {
				return err
			}
			children[i] = c
		}
		s.d.DefineChoice(name, children...)
	case RStar:
		c, err := s.lift(name, r.Item)
		if err != nil {
			return err
		}
		s.d.DefineStar(name, c)
	case RPlus:
		// x+ == (x, x*): a sequence of the lifted item and a star entity.
		c, err := s.lift(name, r.Item)
		if err != nil {
			return err
		}
		star, err := s.entity(name, RStar{Item: RName{Name: c}})
		if err != nil {
			return err
		}
		s.d.DefineSeq(name, c, star)
	case ROpt:
		// x? == (x | ε): a choice between the lifted item and an empty
		// entity.
		c, err := s.lift(name, r.Item)
		if err != nil {
			return err
		}
		empty, err := s.entity(name, REmpty{})
		if err != nil {
			return err
		}
		s.d.DefineChoice(name, c, empty)
	default:
		return fmt.Errorf("dtd: cannot simplify %T", r)
	}
	return nil
}

// Parse parses DTD text and simplifies it in one call — the common path
// for AIG specifications.
func Parse(input string) (*DTD, error) {
	g, err := ParseGeneral(input)
	if err != nil {
		return nil, err
	}
	return Simplify(g)
}

// MustParse is Parse panicking on error.
func MustParse(input string) *DTD {
	d, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}
