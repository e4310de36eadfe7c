package propagate

import (
	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// Prune returns a clone of a keeping only the constraints cert did not
// prove MustHold, so compiling it adds no collector, syn rule or guard
// for a proven one. The proofs hold only while cert.Premises do.
func Prune(a *aig.AIG, cert *Certification) *aig.AIG {
	out := a.Clone()
	out.Constraints = nil
	for i, c := range a.Constraints {
		if cert.Results[i].Verdict != MustHold {
			out.Constraints = append(out.Constraints, c)
		}
	}
	return out
}

// BrokenPremises returns, in input order, the premises (source
// constraints rendered as in Result.Uses) that do not hold on the
// current data. Each is decided on the tables' memoized hash indexes, so
// re-checking an unchanged table allocates nothing. A premise the data
// cannot answer for — a source without direct table access, a missing
// table or column, a constraint a does not declare — counts as broken.
func BrokenPremises(a *aig.AIG, premises []string, data sqlmini.DataProvider) []string {
	var broken []string
	for _, p := range premises {
		if !premiseHolds(a, p, data) {
			broken = append(broken, p)
		}
	}
	return broken
}

func premiseHolds(a *aig.AIG, p string, data sqlmini.DataProvider) bool {
	for _, k := range a.SourceKeys {
		if "key "+k.String() == p {
			ix, ok := columnIndex(data, k.Source, k.Table, k.Cols)
			return ok && ix.Unique()
		}
	}
	for _, fk := range a.SourceFKs {
		if "fkey "+fk.String() == p {
			from, ok1 := columnIndex(data, fk.Source, fk.Table, fk.Cols)
			to, ok2 := columnIndex(data, fk.RefSource, fk.RefTable, fk.RefCols)
			return ok1 && ok2 && len(fk.Cols) == len(fk.RefCols) && from.SubsetOf(to)
		}
	}
	return false
}

// columnIndex returns the hash index of source:table on the named
// columns, or ok=false when the table or a column cannot be resolved.
func columnIndex(data sqlmini.DataProvider, source, table string, names []string) (*relstore.HashIndex, bool) {
	t, err := data.TableData(source, table)
	if err != nil {
		return nil, false
	}
	cols := make([]int, len(names))
	for i, n := range names {
		if cols[i] = t.Schema().ColumnIndex(n); cols[i] < 0 {
			return nil, false
		}
	}
	return t.Index(cols), true
}
