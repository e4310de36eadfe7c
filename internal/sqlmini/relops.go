package sqlmini

import (
	"fmt"

	"github.com/aigrepro/aig/internal/relstore"
)

// This file implements the set-level relational operators that query
// merging (§5.4) relies on: outer union with a tagging column for merging
// independent queries, left outer join for merging dependent queries by
// inlining, and the extraction of a part's relevant tuples before
// shipping.

// TagColumn is the name of the extra column OuterUnion adds to identify
// which merged part each tuple belongs to.
const TagColumn = "__tag"

// OuterUnion combines the given tables into a single table. The result
// schema is the concatenation of the distinct column names across parts
// (first occurrence wins the kind) plus an integer TagColumn holding the
// part index. Columns absent from a part are Null-padded.
func OuterUnion(name string, parts []*relstore.Table) (*relstore.Table, error) {
	var schema relstore.Schema
	pos := make(map[string]int)
	for _, part := range parts {
		for _, col := range part.Schema() {
			if at, ok := pos[col.Name]; ok {
				if schema[at].Kind != col.Kind {
					return nil, fmt.Errorf("sqlmini: outer union column %q has conflicting kinds %s and %s",
						col.Name, schema[at].Kind, col.Kind)
				}
				continue
			}
			pos[col.Name] = len(schema)
			schema = append(schema, col)
		}
	}
	if _, clash := pos[TagColumn]; clash {
		return nil, fmt.Errorf("sqlmini: outer union input already has a %q column", TagColumn)
	}
	full := append(schema.Project(identity(len(schema))), relstore.Column{Name: TagColumn, Kind: relstore.KindInt})
	var rows []relstore.Tuple
	for tag, part := range parts {
		colMap := make([]int, len(part.Schema()))
		for i, col := range part.Schema() {
			colMap[i] = pos[col.Name]
		}
		for _, row := range part.Rows() {
			padded := make(relstore.Tuple, len(full))
			for i := range padded {
				padded[i] = relstore.Null
			}
			for i, v := range row {
				padded[colMap[i]] = v
			}
			padded[len(full)-1] = relstore.Int(int64(tag))
			rows = append(rows, padded)
		}
	}
	return relstore.TableFromRows(name, full, rows)
}

// ExtractPart recovers part tag from an outer union, restoring the part's
// original schema. This is the "extraction of the relevant tuples ...
// before shipping" step of §5.4.
func ExtractPart(name string, union *relstore.Table, tag int, partSchema relstore.Schema) (*relstore.Table, error) {
	tagIdx := union.Schema().ColumnIndex(TagColumn)
	if tagIdx < 0 {
		return nil, fmt.Errorf("sqlmini: table %q is not an outer union (no %s column)", union.Name(), TagColumn)
	}
	colMap := make([]int, len(partSchema))
	for i, col := range partSchema {
		at := union.Schema().ColumnIndex(col.Name)
		if at < 0 {
			return nil, fmt.Errorf("sqlmini: outer union lacks column %q of part schema", col.Name)
		}
		colMap[i] = at
	}
	var rows []relstore.Tuple
	want := relstore.Int(int64(tag))
	for _, row := range union.Rows() {
		if row[tagIdx].Equal(want) {
			rows = append(rows, row.Project(colMap))
		}
	}
	return relstore.TableFromRows(name, partSchema, rows)
}

// LeftOuterJoin joins left and right on equality of the given column
// position lists (parallel slices). Every left row appears at least once;
// unmatched left rows are padded with Nulls on the right. This is the
// "outer join approach" used when merging dependent queries Q1 -> Q2.
func LeftOuterJoin(name string, left, right *relstore.Table, leftCols, rightCols []int) (*relstore.Table, error) {
	if len(leftCols) != len(rightCols) {
		return nil, fmt.Errorf("sqlmini: outer join key arity mismatch: %d vs %d", len(leftCols), len(rightCols))
	}
	nullsRight := make(relstore.Tuple, len(right.Schema()))
	for i := range nullsRight {
		nullsRight[i] = relstore.Null
	}
	// The index carries the snapshot its positions refer to.
	index := right.Index(rightCols)
	rrows := index.Rows()
	key := make(relstore.Tuple, len(leftCols))
	var rows []relstore.Tuple
	for _, lrow := range left.Rows() {
		for i, c := range leftCols {
			key[i] = lrow[c]
		}
		matches := index.Lookup(key)
		if len(matches) == 0 {
			rows = append(rows, lrow.Concat(nullsRight))
			continue
		}
		for _, ri := range matches {
			rows = append(rows, lrow.Concat(rrows[ri]))
		}
	}
	return relstore.TableFromRows(name, left.Schema().Concat(right.Schema()), rows)
}

// ProjectColumns returns a new table keeping only the named columns, in
// the given order.
func ProjectColumns(name string, t *relstore.Table, cols []string) (*relstore.Table, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		at := t.Schema().ColumnIndex(c)
		if at < 0 {
			return nil, fmt.Errorf("sqlmini: table %q has no column %q", t.Name(), c)
		}
		idx[i] = at
	}
	rows := make([]relstore.Tuple, t.Len())
	for i, row := range t.Rows() {
		rows[i] = row.Project(idx)
	}
	return relstore.TableFromRows(name, t.Schema().Project(idx), rows)
}

// Union appends the rows of the given same-schema tables (bag union).
func Union(name string, parts ...*relstore.Table) (*relstore.Table, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sqlmini: union of zero tables")
	}
	var rows []relstore.Tuple
	for _, p := range parts {
		if !p.Schema().Equal(parts[0].Schema()) {
			return nil, fmt.Errorf("sqlmini: union schema mismatch: %v vs %v", p.Schema(), parts[0].Schema())
		}
		rows = append(rows, p.Rows()...)
	}
	return relstore.TableFromRows(name, parts[0].Schema(), rows)
}
