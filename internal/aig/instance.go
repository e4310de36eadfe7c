package aig

import (
	"fmt"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// This file holds the scope the two tree walkers, Eval and EvalPartial,
// evaluate every rule of one production instance in. Only they use it:
// the mediator computes synthesized attributes, copies, query parameters
// and guards set-at-a-time over its own per-context tables
// (internal/mediator/syn.go), with Eval as the reference semantics its
// tests compare against.

// ChildSyns holds the synthesized attributes of every instance of one
// child (or sibling) type, in instance order. All[0] is the "first" Syn a
// Syn(Elem) reference reads; an empty All leaves Syn(Elem) out of scope.
type ChildSyns struct {
	Elem string
	All  []*AttrValue
}

// InstanceScope supplies the values visible to one production instance:
// the element's own inherited attribute (when Elem is set) and the
// synthesized attributes of its children, one entry per child type. Both
// evaluators build it for every rule they evaluate.
type InstanceScope struct {
	Elem string
	Inh  *AttrValue
	Syns []ChildSyns
}

// AddSyn records syn as the next instance of child type elem.
func (s *InstanceScope) AddSyn(elem string, syn *AttrValue) {
	for i := range s.Syns {
		if s.Syns[i].Elem == elem {
			s.Syns[i].All = append(s.Syns[i].All, syn)
			return
		}
	}
	s.Syns = append(s.Syns, ChildSyns{Elem: elem, All: []*AttrValue{syn}})
}

// all returns the synthesized attributes of every instance of elem.
func (s *InstanceScope) all(elem string) []*AttrValue {
	for i := range s.Syns {
		if s.Syns[i].Elem == elem {
			return s.Syns[i].All
		}
	}
	return nil
}

func (s *InstanceScope) resolve(src SourceRef) (*AttrValue, error) {
	switch src.Side {
	case InhSide:
		if s.Inh == nil || src.Elem != s.Elem {
			return nil, fmt.Errorf("aig: Inh(%s) is not in scope", src.Elem)
		}
		return s.Inh, nil
	default:
		all := s.all(src.Elem)
		if len(all) == 0 {
			return nil, fmt.Errorf("aig: Syn(%s) is not in scope (not yet evaluated?)", src.Elem)
		}
		return all[0], nil
	}
}

func (s *InstanceScope) scalar(src SourceRef) (relstore.Value, error) {
	v, err := s.resolve(src)
	if err != nil {
		return relstore.Null, err
	}
	if src.Member == "" {
		return relstore.Null, fmt.Errorf("aig: %s: whole-attribute reference where a scalar is needed", src)
	}
	return v.Scalar(src.Member)
}

func (s *InstanceScope) binding(src SourceRef) (sqlmini.Binding, error) {
	v, err := s.resolve(src)
	if err != nil {
		return sqlmini.Binding{}, err
	}
	return v.MemberBinding(src.Member)
}
