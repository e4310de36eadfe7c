package source

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"github.com/aigrepro/aig/internal/relstore"
)

// ServeMutate answers one row-level write, the POST /mutate query both
// aigd and the aigsource sidecar take:
//
//	?source=DB1&table=visitInfo&op=insert&values=s1,t9,d9
//	?source=DB1&table=visitInfo&op=delete&values=s1,t9,d9
//
// Values are comma-separated and parsed against the table's schema;
// delete removes every row equal to them. resolve maps the source name
// to the database to write. Success is 200 with the JSON object
// {source, table, op, affected, version, rows}; a delete that matches
// nothing succeeds with affected 0. Failures are plain text: an unknown
// source or table is 404, a journal failure 500, anything else
// (malformed input, a source resolve refuses) 400. The result and error
// are returned for the caller's own accounting.
func ServeMutate(w http.ResponseWriter, q url.Values, resolve func(source string) (*relstore.Database, error)) (relstore.MutateResult, error) {
	table, op := q.Get("table"), q.Get("op")
	var res relstore.MutateResult
	db, err := resolve(q.Get("source"))
	switch {
	case err != nil:
	case table == "" || op == "":
		err = fmt.Errorf("%w: table and op are required", relstore.ErrMalformed)
	default:
		res, err = db.Mutate(table, op, relstore.SplitValues(q.Get("values")))
	}
	if err != nil {
		http.Error(w, err.Error(), mutateStatus(err))
		return res, err
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"source":   db.Name(),
		"table":    table,
		"op":       op,
		"affected": res.Affected,
		"version":  res.Version,
		"rows":     res.Rows,
	})
	return res, nil
}

func mutateStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownSource), errors.Is(err, relstore.ErrUnknownTable):
		return http.StatusNotFound
	case errors.Is(err, relstore.ErrJournal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}
