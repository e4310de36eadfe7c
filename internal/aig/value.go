package aig

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// AttrValue is the runtime value of an attribute instance: scalar members
// hold single values, set/bag members hold tuple collections.
type AttrValue struct {
	Decl        AttrDecl
	Scalars     map[string]relstore.Value
	Collections map[string]*relstore.Table
}

// NewAttrValue creates a value for the declaration with Null scalars and
// empty collections.
func NewAttrValue(decl AttrDecl) *AttrValue {
	v := &AttrValue{
		Decl:        decl,
		Scalars:     make(map[string]relstore.Value),
		Collections: make(map[string]*relstore.Table),
	}
	for _, m := range decl.Members {
		switch m.Kind {
		case Scalar:
			v.Scalars[m.Name] = relstore.Null
		default:
			v.Collections[m.Name] = relstore.NewTable(m.Name, m.Fields)
		}
	}
	return v
}

// SetScalar assigns a scalar member.
func (v *AttrValue) SetScalar(name string, val relstore.Value) error {
	m, ok := v.Decl.Member(name)
	if !ok || m.Kind != Scalar {
		return fmt.Errorf("aig: no scalar member %q in %s", name, v.Decl)
	}
	v.Scalars[name] = val
	return nil
}

// Scalar returns the value of a scalar member.
func (v *AttrValue) Scalar(name string) (relstore.Value, error) {
	val, ok := v.Scalars[name]
	if !ok {
		return relstore.Null, fmt.Errorf("aig: no scalar member %q in %s", name, v.Decl)
	}
	return val, nil
}

// Collection returns the table backing a set/bag member.
func (v *AttrValue) Collection(name string) (*relstore.Table, error) {
	t, ok := v.Collections[name]
	if !ok {
		return nil, fmt.Errorf("aig: no collection member %q in %s", name, v.Decl)
	}
	return t, nil
}

// SetCollection replaces a set/bag member's rows. Set members are
// deduplicated; bags keep duplicates. The rows are shared with the value
// and must not be modified afterwards.
func (v *AttrValue) SetCollection(name string, rows []relstore.Tuple) error {
	m, ok := v.Decl.Member(name)
	if !ok || m.Kind == Scalar {
		return fmt.Errorf("aig: no collection member %q in %s", name, v.Decl)
	}
	if m.Kind == Set {
		rows, _ = relstore.DistinctRows(rows)
	}
	t, err := relstore.TableFromRows(name, m.Fields, rows)
	if err != nil {
		return fmt.Errorf("aig: member %q: %v", name, err)
	}
	v.Collections[name] = t
	return nil
}

// ScalarTuple returns the attribute's scalar members as a tuple in
// declaration order.
func (v *AttrValue) ScalarTuple() relstore.Tuple {
	var out relstore.Tuple
	for _, m := range v.Decl.Members {
		if m.Kind == Scalar {
			out = append(out, v.Scalars[m.Name])
		}
	}
	return out
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
	m, ok := v.Decl.Member(member)
	if !ok {
		return sqlmini.Binding{}, fmt.Errorf("aig: no member %q in %s", member, v.Decl)
	}
	if m.Kind == Scalar {
		schema := relstore.Schema{{Name: m.Name, Kind: m.ValueKind}}
		return sqlmini.Binding{Schema: schema, Rows: []relstore.Tuple{{v.Scalars[member]}}}, nil
	}
	return sqlmini.TableBinding(v.Collections[member]), nil
}

// BindScalarsFromRow assigns scalar members from a query output row.
// When every output column names a scalar member, binding is by name and
// members without a matching column are left untouched (they may be
// filled by copy assignments, as in Inh(patient).date = Inh(report).date
// alongside Q1). Otherwise, when the column count equals the number of
// scalar members in targets, binding is positional. Anything else is an
// error.
func (v *AttrValue) BindScalarsFromRow(targets []string, schema relstore.Schema, row relstore.Tuple) error {
	isTarget := make(map[string]bool, len(targets))
	for _, t := range targets {
		isTarget[t] = true
	}
	byName := true
	for _, col := range schema {
		if !isTarget[col.Name] {
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
	out := NewAttrValue(v.Decl)
	for k, s := range v.Scalars {
		out.Scalars[k] = s
	}
	for k, t := range v.Collections {
		out.Collections[k] = t.Clone()
	}
	return out
}

// Equal reports whether two values agree on every member (collections
// compare as multisets).
func (v *AttrValue) Equal(w *AttrValue) bool {
	if len(v.Scalars) != len(w.Scalars) || len(v.Collections) != len(w.Collections) {
		return false
	}
	for k, s := range v.Scalars {
		ws, ok := w.Scalars[k]
		if !ok || !s.Equal(ws) {
			return false
		}
	}
	for k, t := range v.Collections {
		wt, ok := w.Collections[k]
		if !ok || !t.Equal(wt) {
			return false
		}
	}
	return true
}

// String renders the value compactly for debugging and error messages.
func (v *AttrValue) String() string {
	var parts []string
	names := make([]string, 0, len(v.Scalars))
	for k := range v.Scalars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%s", k, v.Scalars[k]))
	}
	names = names[:0]
	for k := range v.Collections {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=[%d rows]", k, v.Collections[k].Len()))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
