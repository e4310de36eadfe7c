package mediator

import (
	"sync"
	"sync/atomic"

	"github.com/aigrepro/aig/internal/aig"
)

// instance is one element node of the document under construction,
// identified by a synthetic id; the (parent id, own id) pair is the
// mediator's path encoding.
type instance struct {
	id     int
	parent int // -1 for the root
	elem   string
	inh    *aig.AttrValue
	// syn is set by the context's syn task while tasks that do not depend
	// on it may be scanning the same parent's children for the ones they
	// do depend on, hence atomic.
	syn    atomic.Pointer[aig.AttrValue]
	branch int // chosen alternative for choice productions (1-based; 0 = none)
}

// store caches the instance tables of every element type — the mediator's
// temporary tables (§5.1).
type store struct {
	mu     sync.Mutex
	nextID int
	lists  map[string]*instList
}

type instList struct {
	rows     []*instance
	byParent map[int][]*instance
}

func newStore() *store {
	return &store{lists: make(map[string]*instList)}
}

// add creates a new instance of elem under the given parent id.
func (s *store) add(elem string, parent int, inh *aig.AttrValue) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst := &instance{id: s.nextID, parent: parent, elem: elem, inh: inh}
	s.nextID++
	l := s.lists[elem]
	if l == nil {
		l = &instList{byParent: make(map[int][]*instance)}
		s.lists[elem] = l
	}
	l.rows = append(l.rows, inst)
	l.byParent[parent] = append(l.byParent[parent], inst)
	return inst
}

// all returns every instance of the element type.
func (s *store) all(elem string) []*instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lists[elem]
	if l == nil {
		return nil
	}
	return l.rows
}

// children returns the instances of elem whose parent is the given id.
func (s *store) children(parent int, elem string) []*instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lists[elem]
	if l == nil {
		return nil
	}
	return l.byParent[parent]
}

// count returns the number of instances of elem.
func (s *store) count(elem string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lists[elem]
	if l == nil {
		return 0
	}
	return len(l.rows)
}
