package relstore

import (
	"slices"
	"testing"
)

// FuzzHashIndex checks the row index against brute force over fuzzed
// rows and a fuzzed column list (none: whole rows): Lookup of every
// row's projection returns exactly the ascending positions of the rows
// Equal to it there, Repeat flags all but the first of them, Unique
// holds exactly when no two projections are Equal, SubsetOf is the
// inclusion of two indexes' projections, and DistinctRows keeps the
// rows the Tuple.Key reference keeps. One index is rebuilt over other
// rows, as the mediator reuses its index from range to range.
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte("\x02\x00\x01\x00\x01\x01\x02\x011"))                                    // Int(1) vs String("1")
	f.Add([]byte("\x02\x01\x00\x00\x00\x00\x00"))                                         // Null vs Null, whole rows
	f.Add([]byte("\x02\x01\x02\x01\x00\x02\x04a\x1fsb\x02\x01c\x02\x01a\x02\x04b\x1fsc")) // 0x1f inside strings
	f.Add([]byte("\x00\x00\x01\x00"))                                                     // an empty table
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, arity, ncols := int(data[0]%10), 1+int(data[1]%3), int(data[2]%4)
		data = data[3:]
		var cols []int
		for i := 0; i < ncols && len(data) > 0; i++ {
			cols = append(cols, int(data[0])%arity)
			data = data[1:]
		}
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = make(Tuple, arity)
			for j := range rows[i] {
				rows[i][j], data = fuzzValue(data)
			}
		}
		on := func(row Tuple, cols []int) Tuple {
			if cols == nil {
				return row
			}
			return row.Project(cols)
		}

		// The first half's projections on cols within the second half's on
		// the reversed columns.
		rcols := slices.Clone(cols)
		slices.Reverse(rcols)
		m := n / 2
		var ix, super HashIndex
		ix.Build(rows[:m], cols)
		super.Build(rows[m:], rcols)
		want := true
		for _, a := range rows[:m] {
			want = want && slices.ContainsFunc(rows[m:], func(b Tuple) bool { return on(a, cols).Equal(on(b, rcols)) })
		}
		if got := ix.SubsetOf(&super); got != want {
			t.Fatalf("%v on %v SubsetOf %v on %v = %v, want %v", rows[:m], cols, rows[m:], rcols, got, want)
		}

		ix.Build(rows, cols)
		unique := true
		for i, row := range rows {
			var pos []int32
			for j, other := range rows {
				if on(other, cols).Equal(on(row, cols)) {
					pos = append(pos, int32(j))
				}
			}
			if got := ix.Lookup(on(row, cols)); !slices.Equal(got, pos) {
				t.Fatalf("%v on %v: Lookup(%v) = %v, want %v", rows, cols, on(row, cols), got, pos)
			}
			if got := ix.Repeat(i); got != (pos[0] != int32(i)) {
				t.Fatalf("%v on %v: Repeat(%d) = %v, first equal row %d", rows, cols, i, got, pos[0])
			}
			unique = unique && len(pos) == 1
		}
		if got := ix.Unique(); got != unique {
			t.Fatalf("%v on %v: Unique = %v, want %v", rows, cols, got, unique)
		}

		seen := make(map[string]bool)
		var kept, dropped []Tuple
		for _, row := range rows {
			if k := row.Key(); seen[k] {
				dropped = append(dropped, row)
			} else {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		gotKept, gotDropped := DistinctRows(rows)
		if !slices.EqualFunc(gotKept, kept, Tuple.Equal) || !slices.EqualFunc(gotDropped, dropped, Tuple.Equal) {
			t.Fatalf("DistinctRows(%v) = %v, %v; want %v, %v", rows, gotKept, gotDropped, kept, dropped)
		}
	})
}
