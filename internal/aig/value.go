package aig

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// AttrValue is the runtime value of an attribute instance: one slot per
// declared member, in declaration order. Scalar members hold single
// values, set/bag members hold tuple collections.
//
// A collection member stays nil until SetCollection writes it and reads
// as empty until then. Reads never write: the mediator's sibling tasks
// read one synthesized value concurrently.
type AttrValue struct {
	Decl  AttrDecl
	slots []slot
}

// slot is one member's value: v for a scalar, t for a written collection.
type slot struct {
	v relstore.Value
	t *relstore.Table
}

// NewAttrValue creates a value for the declaration with Null scalars and
// empty collections.
func NewAttrValue(decl AttrDecl) *AttrValue {
	v := &AttrValue{Decl: decl}
	if len(decl.Members) > 0 {
		v.slots = make([]slot, len(decl.Members))
	}
	return v
}

// index returns the position of the named member (-1 when absent) and
// whether it is a scalar. Declarations are a handful of members, so a
// scan beats a map.
func (v *AttrValue) index(name string) (int, bool) {
	for i := range v.Decl.Members {
		if m := &v.Decl.Members[i]; m.Name == name {
			return i, m.Kind == Scalar
		}
	}
	return -1, false
}

// rows returns the rows of the collection at position i (nil when
// unwritten).
func (v *AttrValue) rows(i int) []relstore.Tuple {
	if t := v.slots[i].t; t != nil {
		return t.Rows()
	}
	return nil
}

// table returns the collection at position i; an unwritten one reads as
// a fresh empty table that is not stored.
func (v *AttrValue) table(i int) *relstore.Table {
	if t := v.slots[i].t; t != nil {
		return t
	}
	m := &v.Decl.Members[i]
	return relstore.NewTable(m.Name, m.Fields)
}

// SetScalar assigns a scalar member.
func (v *AttrValue) SetScalar(name string, val relstore.Value) error {
	i, scalar := v.index(name)
	if i < 0 || !scalar {
		return fmt.Errorf("aig: no scalar member %q in %s", name, v.Decl)
	}
	v.slots[i].v = val
	return nil
}

// Scalar returns the value of a scalar member.
func (v *AttrValue) Scalar(name string) (relstore.Value, error) {
	i, scalar := v.index(name)
	if i < 0 || !scalar {
		return relstore.Null, fmt.Errorf("aig: no scalar member %q in %s", name, v.Decl)
	}
	return v.slots[i].v, nil
}

// Collection returns the table backing a set/bag member.
func (v *AttrValue) Collection(name string) (*relstore.Table, error) {
	i, scalar := v.index(name)
	if i < 0 || scalar {
		return nil, fmt.Errorf("aig: no collection member %q in %s", name, v.Decl)
	}
	return v.table(i), nil
}

// SetCollection replaces a set/bag member's rows. Set members are
// deduplicated; bags keep duplicates. The rows are shared with the value
// and must not be modified afterwards.
func (v *AttrValue) SetCollection(name string, rows []relstore.Tuple) error {
	i, scalar := v.index(name)
	if i < 0 || scalar {
		return fmt.Errorf("aig: no collection member %q in %s", name, v.Decl)
	}
	m := &v.Decl.Members[i]
	if m.Kind == Set {
		rows, _ = relstore.DistinctRows(rows)
	}
	t, err := relstore.TableFromRows(name, m.Fields, rows)
	if err != nil {
		return fmt.Errorf("aig: member %q: %v", name, err)
	}
	v.slots[i].t = t
	return nil
}

// ScalarTuple returns the attribute's scalar members as a tuple in
// declaration order.
func (v *AttrValue) ScalarTuple() relstore.Tuple {
	return v.AppendScalars(make(relstore.Tuple, 0, len(v.slots)))
}

// AppendScalars appends the attribute's scalar members to dst in
// declaration order.
func (v *AttrValue) AppendScalars(dst []relstore.Value) []relstore.Value {
	for i := range v.Decl.Members {
		if v.Decl.Members[i].Kind == Scalar {
			dst = append(dst, v.slots[i].v)
		}
	}
	return dst
}

// ScalarBinding returns the attribute's scalar tuple as a one-row query
// binding — the form Q(Inh(A)) receives.
func (v *AttrValue) ScalarBinding() sqlmini.Binding {
	return sqlmini.Binding{Schema: v.Decl.ScalarSchema(), Rows: []relstore.Tuple{v.ScalarTuple()}}
}

// MemberBinding returns the binding for a source member reference: the
// whole scalar tuple when member is empty, otherwise the named member
// (collections bind their rows; scalars bind as a one-row, one-column
// relation).
func (v *AttrValue) MemberBinding(member string) (sqlmini.Binding, error) {
	if member == "" {
		return v.ScalarBinding(), nil
	}
	i, scalar := v.index(member)
	if i < 0 {
		return sqlmini.Binding{}, fmt.Errorf("aig: no member %q in %s", member, v.Decl)
	}
	m := &v.Decl.Members[i]
	if scalar {
		schema := relstore.Schema{{Name: m.Name, Kind: m.ValueKind}}
		return sqlmini.Binding{Schema: schema, Rows: []relstore.Tuple{{v.slots[i].v}}}, nil
	}
	return sqlmini.Binding{Schema: m.Fields, Rows: v.rows(i)}, nil
}

// BindScalarsFromRow assigns scalar members from a query output row.
// When every output column names a scalar member, binding is by name and
// members without a matching column are left untouched (they may be
// filled by copy assignments, as in Inh(patient).date = Inh(report).date
// alongside Q1). Otherwise, when the column count equals the number of
// scalar members in targets, binding is positional. Anything else is an
// error.
func (v *AttrValue) BindScalarsFromRow(targets []string, schema relstore.Schema, row relstore.Tuple) error {
	byName := true
	for _, col := range schema {
		if !slices.Contains(targets, col.Name) {
			byName = false
			break
		}
	}
	if byName {
		for i, col := range schema {
			if err := v.SetScalar(col.Name, row[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if len(targets) != len(row) {
		return fmt.Errorf("aig: cannot bind %d members %v from %d columns %s", len(targets), targets, len(row), schema)
	}
	for i, t := range targets {
		if err := v.SetScalar(t, row[i]); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the value.
func (v *AttrValue) Clone() *AttrValue {
	out := &AttrValue{Decl: v.Decl, slots: slices.Clone(v.slots)}
	for i := range out.slots {
		if t := out.slots[i].t; t != nil {
			out.slots[i].t = t.Clone()
		}
	}
	return out
}

// Equal reports whether two values agree on every member, matched by
// name (collections compare as multisets; unwritten reads as empty).
func (v *AttrValue) Equal(w *AttrValue) bool {
	if len(v.Decl.Members) != len(w.Decl.Members) {
		return false
	}
	for i := range v.Decl.Members {
		scalar := v.Decl.Members[i].Kind == Scalar
		j, wScalar := w.index(v.Decl.Members[i].Name)
		switch {
		case j < 0 || wScalar != scalar:
			return false
		case scalar && !v.slots[i].v.Equal(w.slots[j].v):
			return false
		case !scalar && !v.table(i).Equal(w.table(j)):
			return false
		}
	}
	return true
}

// String renders the value compactly for debugging and error messages:
// scalars, then collections, each sorted by name.
func (v *AttrValue) String() string {
	ms := v.Decl.Members
	order := make([]int, len(ms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ma, mb := &ms[order[a]], &ms[order[b]]
		if (ma.Kind == Scalar) != (mb.Kind == Scalar) {
			return ma.Kind == Scalar
		}
		return ma.Name < mb.Name
	})
	parts := make([]string, len(order))
	for k, i := range order {
		if ms[i].Kind == Scalar {
			parts[k] = fmt.Sprintf("%s=%s", ms[i].Name, v.slots[i].v)
		} else {
			parts[k] = fmt.Sprintf("%s=[%d rows]", ms[i].Name, len(v.rows(i)))
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
