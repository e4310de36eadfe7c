package difftest

import (
	"github.com/aigrepro/aig/internal/randaig"
)

// DefaultShrinkBudget bounds the number of oracle re-runs one shrink is
// allowed (each candidate costs a full Check).
const DefaultShrinkBudget = 300

// ShrinkResult is a minimized failing instance together with the
// replayable op sequence that produces it from the original seed.
type ShrinkResult struct {
	Instance   *randaig.Instance
	Ops        []randaig.Op
	Divergence *Divergence
	// Checks is the number of oracle runs the shrink consumed.
	Checks int
}

// Shrink greedily minimizes a diverging instance while preserving the
// divergence on the same leg. It tries, in order: dropping constraints,
// pruning sequence children, and reducing table rows (ddmin-style
// chunk halving). Every accepted step is recorded as a replayable
// randaig.Op. budget <= 0 means DefaultShrinkBudget.
func Shrink(inst *randaig.Instance, opts Options, div *Divergence, budget int) ShrinkResult {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	s := &shrinker{opts: opts, leg: div.Leg, budget: budget}
	cur, ops, last := inst, []randaig.Op(nil), div

	// Passes repeat until a full sweep makes no progress (row reduction
	// can unlock further child pruning and vice versa).
	for {
		progressed := false
		for _, pass := range []func(*randaig.Instance) (randaig.Op, *randaig.Instance, *Divergence, bool){
			s.dropConstraint, s.pruneChild, s.reduceRows,
		} {
			for {
				op, next, d, ok := pass(cur)
				if !ok {
					break
				}
				cur, last = next, d
				ops = append(ops, op)
				progressed = true
			}
		}
		if !progressed || s.exhausted() {
			break
		}
	}
	return ShrinkResult{Instance: cur, Ops: ops, Divergence: last, Checks: s.checks}
}

type shrinker struct {
	opts   Options
	leg    string
	budget int
	checks int
}

func (s *shrinker) exhausted() bool { return s.checks >= s.budget }

// reproduces re-runs the oracle and reports whether the same leg still
// diverges.
func (s *shrinker) reproduces(inst *randaig.Instance) (*Divergence, bool) {
	if s.exhausted() {
		return nil, false
	}
	s.checks++
	out := Check(inst, s.opts)
	if out.Divergence != nil && out.Divergence.Leg == s.leg {
		return out.Divergence, true
	}
	return nil, false
}

// try applies one op and keeps it when the divergence survives.
func (s *shrinker) try(inst *randaig.Instance, op randaig.Op) (*randaig.Instance, *Divergence, bool) {
	next, err := inst.Apply(op)
	if err != nil {
		return nil, nil, false
	}
	d, ok := s.reproduces(next)
	if !ok {
		return nil, nil, false
	}
	return next, d, true
}

// dropConstraint removes the highest-indexed constraint that is not
// needed to reproduce.
func (s *shrinker) dropConstraint(inst *randaig.Instance) (randaig.Op, *randaig.Instance, *Divergence, bool) {
	for i := len(inst.AIG.Constraints) - 1; i >= 0; i-- {
		op := randaig.Op{Kind: randaig.OpDropConstraint, Index: i}
		if next, d, ok := s.try(inst, op); ok {
			return op, next, d, true
		}
	}
	return randaig.Op{}, nil, nil, false
}

// pruneChild removes one sequence child whose absence preserves the
// divergence. Apply rejects prunes that break static validity, so this
// only ever proposes well-formed candidates.
func (s *shrinker) pruneChild(inst *randaig.Instance) (randaig.Op, *randaig.Instance, *Divergence, bool) {
	for _, elem := range inst.AIG.DTD.Types() {
		p, ok := inst.AIG.DTD.Production(elem)
		if !ok || len(p.Children) < 2 {
			continue
		}
		seen := map[string]bool{}
		for _, child := range p.Children {
			if seen[child] {
				continue
			}
			seen[child] = true
			op := randaig.Op{Kind: randaig.OpPruneChild, Elem: elem, Child: child}
			if next, d, ok := s.try(inst, op); ok {
				return op, next, d, true
			}
		}
	}
	return randaig.Op{}, nil, nil, false
}

// reduceRows shrinks one table's row set, trying the empty set first
// and then ddmin-style complements of ever-smaller chunks.
func (s *shrinker) reduceRows(inst *randaig.Instance) (randaig.Op, *randaig.Instance, *Divergence, bool) {
	for _, dbName := range inst.Catalog.DatabaseNames() {
		db, err := inst.Catalog.Database(dbName)
		if err != nil {
			continue
		}
		for _, tn := range db.TableNames() {
			t, err := db.Table(tn)
			if err != nil || t.Len() == 0 {
				continue
			}
			n := t.Len()
			// Empty table outright?
			op := randaig.Op{Kind: randaig.OpKeepRows, Source: dbName, Table: tn, Keep: []int{}}
			if next, d, ok := s.try(inst, op); ok {
				return op, next, d, true
			}
			// Keep the complement of one chunk, halving chunk granularity.
			for chunks := 2; chunks <= n; chunks *= 2 {
				size := (n + chunks - 1) / chunks
				for start := 0; start < n; start += size {
					var keep []int
					for i := 0; i < n; i++ {
						if i < start || i >= start+size {
							keep = append(keep, i)
						}
					}
					if len(keep) == 0 || len(keep) == n {
						continue
					}
					op := randaig.Op{Kind: randaig.OpKeepRows, Source: dbName, Table: tn, Keep: keep}
					if next, d, ok := s.try(inst, op); ok {
						return op, next, d, true
					}
				}
			}
		}
	}
	return randaig.Op{}, nil, nil, false
}

// ddmin minimizes a diverging sequence: it drops ever-smaller chunks
// while run keeps diverging on leg, and returns the shrunk sequence,
// its divergence and the number of runs spent. A candidate diverging on
// another leg is a different bug and is rejected. An input that does
// not diverge on leg costs one run and comes back unchanged with a nil
// divergence. budget <= 0 means DefaultShrinkBudget runs.
func ddmin[T any](seq []T, leg string, budget int, run func([]T) *Divergence) ([]T, *Divergence, int) {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	checks := 0
	reproduces := func(candidate []T) *Divergence {
		if checks >= budget {
			return nil
		}
		checks++
		if d := run(candidate); d != nil && d.Leg == leg {
			return d
		}
		return nil
	}

	cur := seq
	last := reproduces(cur)
	if last == nil {
		return cur, nil, checks
	}
	for size := len(cur) / 2; size >= 1; {
		removedAny := false
		for start := 0; start+size <= len(cur); {
			candidate := append(append([]T(nil), cur[:start]...), cur[start+size:]...)
			if d := reproduces(candidate); d != nil {
				cur, last = candidate, d
				removedAny = true
				continue // same start now covers the next chunk
			}
			start += size
		}
		if !removedAny {
			size /= 2
		} else if size > len(cur)/2 {
			size = len(cur) / 2
		}
		if checks >= budget {
			break
		}
	}
	return cur, last, checks
}
