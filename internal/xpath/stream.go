package xpath

import (
	"io"

	"github.com/aigrepro/aig/internal/xmltree"
)

// Stream is the streaming matcher: it takes a document as the events an
// xmltree.Encoder takes, in document order, and writes every outermost
// match to its writer exactly as Node.WriteIndented writes it, flushing
// each match once its element closes. Outside a match it keeps one frame
// per open element — the active states of its children's walk and their
// positional counters — so [N] is decided as each candidate opens. A
// candidate a [child='X'] test must look into is buffered as a tree
// until it closes and then judged by the tree matcher, with its parent's
// counters, exactly as Select judges it.
type Stream struct {
	steps []Step
	w     io.Writer
	enc   xmltree.Encoder
	// frames are the open elements outside a match; states holds their
	// children's active states, frames[i] owning states[lo:hi].
	frames []frame
	states []int
	index  bool // some step has an [N] test: frames count positions
	// dead counts open elements below a frame no state is active in.
	dead int
	// in is the nesting depth inside the match being written, 0 outside.
	in int
	// buf is the candidate being buffered, bufDepth its nesting depth.
	buf      *xmltree.Builder
	bufDepth int
	matches  int
	err      error
}

type frame struct {
	lo, hi int
	ctr    counters
}

// NewStream starts a matcher for path p whose matches go to w. Its first
// event is the document's root element.
func NewStream(p *Path, w io.Writer) *Stream {
	s := &Stream{steps: p.Steps, w: w, enc: xmltree.Encoder{W: w}, states: []int{0}}
	for _, st := range p.Steps {
		for _, pred := range st.Preds {
			if _, ok := pred.(Index); ok {
				s.index = true
			}
		}
	}
	s.frames = []frame{s.frame(0)}
	return s
}

// Matches returns the number of matches written so far.
func (s *Stream) Matches() int { return s.matches }

// Err returns the first error the writer returned.
func (s *Stream) Err() error { return s.err }

// frame starts the frame of an element whose children's states are
// s.states[lo:].
func (s *Stream) frame(lo int) frame {
	f := frame{lo: lo, hi: len(s.states)}
	if s.index {
		f.ctr = newCounters()
	}
	return f
}

// Open starts an element with element content.
func (s *Stream) Open(label string) {
	switch {
	case s.in > 0:
		s.enc.Open(label)
		s.in++
	case s.buf != nil:
		s.buf.Open(label)
		s.bufDepth++
	case s.dead > 0:
		s.dead++
	case s.looksInside(label):
		s.buf = &xmltree.Builder{}
		s.buf.Open(label)
		s.bufDepth = 1
	default:
		lo := len(s.states)
		switch {
		case s.step(label, lo):
			s.states = s.states[:lo]
			s.enc.Open(label)
			s.in = 1
		case len(s.states) == lo:
			s.dead = 1
		default:
			s.frames = append(s.frames, s.frame(lo))
		}
	}
}

// Close ends the element the matching Open started.
func (s *Stream) Close(label string) {
	switch {
	case s.in > 0:
		s.enc.Close(label)
		if s.in--; s.in == 0 {
			s.done()
		}
	case s.buf != nil:
		s.buf.Close(label)
		if s.bufDepth--; s.bufDepth == 0 {
			n := s.buf.Root()
			s.buf = nil
			s.judge(n)
		}
	case s.dead > 0:
		s.dead--
	default:
		f := s.frames[len(s.frames)-1]
		s.frames = s.frames[:len(s.frames)-1]
		s.states = s.states[:f.lo]
	}
}

// Leaf is an element whose only child is text.
func (s *Stream) Leaf(label, text string) {
	switch {
	case s.in > 0:
		s.enc.Leaf(label, text)
	case s.buf != nil:
		s.buf.Leaf(label, text)
	case s.dead > 0:
	case s.looksInside(label):
		var b xmltree.Builder
		b.Leaf(label, text)
		s.judge(b.Root())
	default:
		if s.childless(label) {
			s.enc.Leaf(label, text)
			s.done()
		}
	}
}

// Empty is a childless element.
func (s *Stream) Empty(label string) {
	switch {
	case s.in > 0:
		s.enc.Empty(label)
	case s.buf != nil:
		s.buf.Empty(label)
	case s.dead > 0:
	case s.looksInside(label):
		var b xmltree.Builder
		b.Empty(label)
		s.judge(b.Root())
	default:
		if s.childless(label) {
			s.enc.Empty(label)
			s.done()
		}
	}
}

// looksInside reports whether an element labeled label needs its
// children to be judged: some active state's name test accepts it and
// its step has a [child='X'] test.
func (s *Stream) looksInside(label string) bool {
	f := &s.frames[len(s.frames)-1]
	for _, st := range s.states[f.lo:f.hi] {
		step := &s.steps[st]
		if !nameMatches(step.Name, label) {
			continue
		}
		for _, p := range step.Preds {
			if _, ok := p.(ChildEq); ok {
				return true
			}
		}
	}
	return false
}

// step judges an element labeled label against the innermost frame's
// states as matchOne judges a node, appending the states its children's
// walk starts with to s.states from lo on. The caller has made sure no
// [child='X'] test is reached.
func (s *Stream) step(label string, lo int) (matched bool) {
	f := &s.frames[len(s.frames)-1]
	for _, st := range s.states[f.lo:f.hi] {
		step := &s.steps[st]
		if step.Axis == Descendant {
			s.push(lo, st)
		}
		if !nameMatches(step.Name, label) || !evalPreds(step, st, nil, f.ctr) {
			continue
		}
		if st == len(s.steps)-1 {
			matched = true
			continue
		}
		s.push(lo, st+1)
	}
	return matched
}

// childless steps an element with no element children: whether it
// matches; the states below it have nothing to walk.
func (s *Stream) childless(label string) bool {
	lo := len(s.states)
	matched := s.step(label, lo)
	s.states = s.states[:lo]
	return matched
}

// push adds state st to the set s.states[lo:].
func (s *Stream) push(lo, st int) {
	for _, have := range s.states[lo:] {
		if have == st {
			return
		}
	}
	s.states = append(s.states, st)
}

// judge resolves a buffered candidate against the innermost frame: a
// match is written whole, otherwise the matches below it are.
func (s *Stream) judge(n *xmltree.Node) {
	f := &s.frames[len(s.frames)-1]
	var out []*xmltree.Node
	if matched, next := matchOne(s.steps, n, s.states[f.lo:f.hi], f.ctr); matched {
		out = append(out, n)
	} else {
		walkChildren(s.steps, n.Children, next, newCounters(), &out)
	}
	for _, m := range out {
		if s.err == nil {
			s.err = m.WriteIndented(s.w)
		}
		s.matches++
	}
}

// done ends a streamed match: its bytes go to the writer now.
func (s *Stream) done() {
	s.matches++
	if _, err := s.enc.Flush(); err != nil && s.err == nil {
		s.err = err
	}
}
