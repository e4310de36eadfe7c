package aig

import (
	"fmt"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// This file exports per-instance rule evaluation for use by the mediator,
// which computes synthesized attributes and checks guards "within
// application code" at the mediator (§5.1) while sharing the exact rule
// semantics of the conceptual evaluator.

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

// AddSyns records syns as the next instances of child type elem, in one
// step for a caller that gathered them itself. The scope may keep syns
// and append to it.
func (s *InstanceScope) AddSyns(elem string, syns []*AttrValue) {
	if len(syns) == 0 {
		return
	}
	for i := range s.Syns {
		if s.Syns[i].Elem == elem {
			s.Syns[i].All = append(s.Syns[i].All, syns...)
			return
		}
	}
	s.Syns = append(s.Syns, ChildSyns{Elem: elem, All: syns})
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

// EvalSynFor evaluates a synthesized-attribute rule for one instance.
// Queries never occur in Syn rules, so no environment is needed.
func (a *AIG) EvalSynFor(elem string, r *SynRule, is InstanceScope) (*AttrValue, error) {
	return a.evalSynRule(nil, elem, r, &is)
}

// EvalCopiesFor applies a copy-only inherited rule for one instance,
// writing into target. Query rules are the mediator's own set-oriented
// business and are rejected here.
func (a *AIG) EvalCopiesFor(ir *InhRule, target *AttrValue, is InstanceScope) error {
	for _, c := range ir.Copies {
		m, ok := target.Decl.Member(c.TargetMember)
		if !ok {
			continue
		}
		if m.Kind == Scalar {
			v, err := is.scalar(c.Src)
			if err != nil {
				return err
			}
			if err := target.SetScalar(c.TargetMember, v); err != nil {
				return err
			}
			continue
		}
		b, err := is.binding(c.Src)
		if err != nil {
			return err
		}
		if err := target.SetCollection(c.TargetMember, b.Rows); err != nil {
			return err
		}
	}
	return nil
}

// CheckGuard evaluates one guard against a synthesized attribute value.
func CheckGuard(g Guard, syn *AttrValue) (bool, error) {
	return evalGuard(g, syn)
}

// ResolveBinding resolves a source reference to a query binding within an
// instance scope.
func (is InstanceScope) ResolveBinding(src SourceRef) (sqlmini.Binding, error) {
	return is.binding(src)
}
