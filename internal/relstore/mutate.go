package relstore

import (
	"errors"
	"fmt"
	"strings"
)

// The classes a mutation error falls into; test with errors.Is.
var (
	// ErrMalformed: an unknown op, the wrong number of values, or a value
	// that does not parse as its column's kind.
	ErrMalformed = errors.New("relstore: malformed input")
	// ErrUnknownTable: the database has no table of that name.
	ErrUnknownTable = errors.New("relstore: no table")
	// ErrJournal: the write-ahead log refused the record, so the write
	// was not applied.
	ErrJournal = errors.New("relstore: journal failure")
)

// The mutation ops: insert one row, or delete every row equal to it.
const (
	OpInsert = "insert"
	OpDelete = "delete"
)

// MutateResult reports one applied mutation.
type MutateResult struct {
	Affected int    // rows inserted or deleted (0 for a delete that matched nothing)
	Version  uint64 // the table's version after the write
	Rows     int    // the table's row count after the write
}

// ParseRow parses one text per column, each according to its column's
// kind (see ParseValue). A row rendered with Value.Text parses back to
// an equal tuple.
func (s Schema) ParseRow(texts []string) (Tuple, error) {
	if len(texts) != len(s) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrMalformed, len(texts), len(s))
	}
	row := make(Tuple, len(s))
	for i, text := range texts {
		v, err := ParseValue(s[i].Kind, text)
		if err != nil {
			return nil, fmt.Errorf("%w: column %s: %v", ErrMalformed, s[i].Name, err)
		}
		row[i] = v
	}
	return row, nil
}

// SplitValues splits the comma-separated value list the write surfaces
// take (values=V1,V2,...). The empty list is no values, not one empty
// value.
func SplitValues(list string) []string {
	if list == "" {
		return nil
	}
	return strings.Split(list, ",")
}

// Mutate applies one row mutation to the named table: OpInsert appends
// the row the values parse to, OpDelete removes every row equal to it
// (matching nothing is not an error). Errors wrap ErrUnknownTable,
// ErrMalformed or ErrJournal; a failed mutation changes nothing. It is
// the one write path for rows from outside the program — aigd's POST
// /mutate, the aigsource sidecar and -apply, and the differential
// oracles — so every surface agrees on what a write means.
func (db *Database) Mutate(table, op string, values []string) (MutateResult, error) {
	t, err := db.Table(table)
	if err != nil {
		return MutateResult{}, err
	}
	if op != OpInsert && op != OpDelete {
		return MutateResult{}, fmt.Errorf("%w: unknown op %q (want insert or delete)", ErrMalformed, op)
	}
	row, err := t.schema.ParseRow(values)
	if err != nil {
		return MutateResult{}, fmt.Errorf("table %s: %w", table, err)
	}
	// The row conforms to the schema, so the only failure left to
	// Insert and DeleteWhere is the journal's.
	n := 1
	if op == OpInsert {
		err = t.Insert(row)
	} else {
		n, err = t.DeleteWhere(row.Equal)
	}
	if err != nil {
		return MutateResult{}, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return MutateResult{Affected: n, Version: t.Version(), Rows: t.Len()}, nil
}
