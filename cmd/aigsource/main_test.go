package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/relstore/iofault"
	"github.com/aigrepro/aig/internal/serve"
	"github.com/aigrepro/aig/internal/source"
)

// journaledDB3 is the tiny hospital catalog's DB3, journaled on a
// fault-injectable filesystem.
func journaledDB3(t *testing.T) (*relstore.Catalog, *relstore.Database, *iofault.FS) {
	t.Helper()
	cat := hospital.TinyCatalog()
	db, err := cat.Database("DB3")
	if err != nil {
		t.Fatal(err)
	}
	fs := iofault.New()
	if _, err := db.Persist(relstore.PersistOptions{FS: fs, Fsync: relstore.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	return cat, db, fs
}

// TestMutateEndpointsAgree drives one table of writes through aigd's
// POST /mutate and through the sidecar's, each over its own copy of the
// same data: status codes and JSON answers must be identical.
func TestMutateEndpointsAgree(t *testing.T) {
	cat, _, aigdFS := journaledDB3(t)
	reg := source.NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, _ := cat.Database(name)
		reg.Add(source.NewLocal(db))
	}
	srv := serve.NewServer(reg, serve.Config{AllowMutate: true, Metrics: obs.NewRegistry()})
	defer srv.Close()
	aigd := httptest.NewServer(srv.Handler())
	defer aigd.Close()

	_, db3, sidecarFS := journaledDB3(t)
	sidecar := httptest.NewServer(sidecarMux("DB3", db3))
	defer sidecar.Close()

	post := func(base, query string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/mutate?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("%s: decoding the answer: %v", query, err)
			}
		}
		return resp.StatusCode, body
	}

	for _, tc := range []struct {
		name, query string
		code        int
		affected    float64
	}{
		{"insert", "source=DB3&table=billing&op=insert&values=t9,99", http.StatusOK, 1},
		{"delete", "source=DB3&table=billing&op=delete&values=t9,99", http.StatusOK, 1},
		{"delete absent row", "source=DB3&table=billing&op=delete&values=t9,99", http.StatusOK, 0},
		{"delete without values", "source=DB3&table=billing&op=delete", http.StatusBadRequest, 0},
		{"unknown op", "source=DB3&table=billing&op=upsert&values=t9,99", http.StatusBadRequest, 0},
		{"wrong arity", "source=DB3&table=billing&op=insert&values=t9", http.StatusBadRequest, 0},
		{"bad int", "source=DB3&table=billing&op=insert&values=t9,lots", http.StatusBadRequest, 0},
		{"missing op", "source=DB3&table=billing", http.StatusBadRequest, 0},
		{"unknown table", "source=DB3&table=nope&op=insert&values=t9,99", http.StatusNotFound, 0},
		{"unknown source", "source=DB9&table=billing&op=insert&values=t9,99", http.StatusNotFound, 0},
	} {
		code, body := post(aigd.URL, tc.query)
		scode, sbody := post(sidecar.URL, tc.query)
		if code != tc.code || scode != tc.code {
			t.Errorf("%s: aigd %d, sidecar %d, want %d", tc.name, code, scode, tc.code)
			continue
		}
		if !reflect.DeepEqual(body, sbody) {
			t.Errorf("%s: aigd answered %v, sidecar %v", tc.name, body, sbody)
		}
		if code == http.StatusOK && body["affected"] != tc.affected {
			t.Errorf("%s: affected %v, want %v", tc.name, body["affected"], tc.affected)
		}
	}

	// A write the journal refuses is a server error on both.
	aigdFS.InjectShortWrite(1)
	sidecarFS.InjectShortWrite(1)
	query := "source=DB3&table=billing&op=insert&values=t9,99"
	if code, _ := post(aigd.URL, query); code != http.StatusInternalServerError {
		t.Errorf("journal failure: aigd %d, want 500", code)
	}
	if code, _ := post(sidecar.URL, query); code != http.StatusInternalServerError {
		t.Errorf("journal failure: sidecar %d, want 500", code)
	}
}

// TestApplySpec covers the -apply split and, through it, every outcome
// class of relstore's Database.Mutate.
func TestApplySpec(t *testing.T) {
	db, err := hospital.TinyCatalog().Database("DB3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec     string
		want     error // nil: success with affected below
		affected int
	}{
		{"billing:insert:t9,99", nil, 1},
		{"billing:insert:t9,99", nil, 1},
		{"billing:delete:t9,99", nil, 2}, // every equal row
		{"billing:delete:t9,99", nil, 0}, // matching nothing succeeds
		{"billing:insert:t:9,", nil, 1},  // the values may hold colons; an empty int is NULL
		{"billing:delete:t:9,", nil, 1},
		{"billing:delete", relstore.ErrMalformed, 0},
		{"billing:delete:", relstore.ErrMalformed, 0},
		{"billing:insert:t9", relstore.ErrMalformed, 0},
		{"billing::t9,99", relstore.ErrMalformed, 0},
		{"nope:insert:t9,99", relstore.ErrUnknownTable, 0},
	} {
		res, err := applySpec(db, tc.spec)
		if tc.want != nil {
			if !errors.Is(err, tc.want) {
				t.Errorf("%q: error %v, want %v", tc.spec, err, tc.want)
			}
			continue
		}
		if err != nil || res.Affected != tc.affected {
			t.Errorf("%q = %+v, %v; want affected %d", tc.spec, res, err, tc.affected)
		}
	}
	if _, err := applySpec(db, "billing"); err == nil {
		t.Error("a spec without an op was accepted")
	}
}
