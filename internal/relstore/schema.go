package relstore

import (
	"fmt"
	"strings"
)

// Column describes a single attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// String renders the column as "name:kind", the form used in CSV headers.
func (c Column) String() string { return c.Name + ":" + c.Kind.String() }

// Schema is an ordered list of columns. Column names within a schema are
// unique (case-sensitive).
type Schema []Column

// MustSchema builds a schema from "name:kind" strings, panicking on error.
// It is intended for tests and static declarations.
func MustSchema(cols ...string) Schema {
	s, err := ParseSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseSchema builds a schema from "name:kind" strings. A missing ":kind"
// suffix defaults to string, matching how DTD PCDATA values are typed.
func ParseSchema(cols []string) (Schema, error) {
	s := make(Schema, 0, len(cols))
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		name, kindName, found := strings.Cut(c, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("relstore: empty column name in %q", c)
		}
		kind := KindString
		if found {
			var err error
			kind, err = ParseKind(kindName)
			if err != nil {
				return nil, err
			}
		}
		if seen[name] {
			return nil, fmt.Errorf("relstore: duplicate column %q", name)
		}
		seen[name] = true
		s = append(s, Column{Name: name, Kind: kind})
	}
	return s, nil
}

// ColumnIndex returns the position of the named column, or -1 if absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the schema contains the named column.
func (s Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i, c := range s {
		names[i] = c.Name
	}
	return names
}

// Equal reports whether two schemas have identical columns in identical
// order.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Project returns the sub-schema selecting the columns at the given
// positions.
func (s Schema) Project(idx []int) Schema {
	out := make(Schema, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

// Concat returns the concatenation of two schemas. Duplicate names are
// disambiguated by suffixing "_2", "_3", ....
func (s Schema) Concat(t Schema) Schema {
	out := make(Schema, 0, len(s)+len(t))
	seen := make(map[string]bool, len(s)+len(t))
	add := func(c Column) {
		name := c.Name
		for n := 2; seen[name]; n++ {
			name = fmt.Sprintf("%s_%d", c.Name, n)
		}
		seen[name] = true
		out = append(out, Column{Name: name, Kind: c.Kind})
	}
	for _, c := range s {
		add(c)
	}
	for _, c := range t {
		add(c)
	}
	return out
}

// String renders the schema as "(a:int, b:string)".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Validate checks that a tuple conforms to the schema: same arity and each
// value either Null or of the column's kind.
func (s Schema) Validate(t Tuple) error {
	if len(t) != len(s) {
		return fmt.Errorf("relstore: tuple arity %d does not match schema arity %d", len(t), len(s))
	}
	for i, v := range t {
		if !v.IsNull() && v.Kind() != s[i].Kind {
			return fmt.Errorf("relstore: column %q expects %s, got %s", s[i].Name, s[i].Kind, v.Kind())
		}
	}
	return nil
}
