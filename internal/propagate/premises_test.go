package propagate

import (
	"errors"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// hospitalPremises certifies the hospital spec and returns it with the
// premises its proofs use.
func hospitalPremises(t *testing.T) (*aig.AIG, *Certification) {
	t.Helper()
	a, err := aigspec.Parse(hospital.SpecText)
	if err != nil {
		t.Fatal(err)
	}
	cert := Certify(a)
	want := []string{
		"fkey DB1:visitInfo(trId) -> DB3:billing(trId)",
		"fkey DB4:procedure(trId2) -> DB3:billing(trId)",
		"key DB3:billing(trId)",
	}
	if !equalStrings(cert.Premises, want) {
		t.Fatalf("premises %v, want %v", cert.Premises, want)
	}
	return a, cert
}

func TestPruneKeepsOnlyUnprovenConstraints(t *testing.T) {
	a, cert := hospitalPremises(t)
	if p := Prune(a, cert); len(p.Constraints) != 0 {
		t.Errorf("certified grammar pruned to %d constraints, want 0", len(p.Constraints))
	}
	if len(a.Constraints) != 2 {
		t.Fatal("Prune modified its input")
	}

	a.SourceKeys, a.SourceFKs = nil, nil
	cert = Certify(a)
	if p := Prune(a, cert); len(p.Constraints) != 2 {
		t.Errorf("uncertified grammar pruned to %d constraints, want 2", len(p.Constraints))
	}
	if len(cert.Premises) != 0 {
		t.Errorf("premises %v without any proof", cert.Premises)
	}
}

// TestBrokenPremisesHospital: each hospital premise breaks on exactly
// the write that falsifies it, and holds again once the write is undone.
func TestBrokenPremisesHospital(t *testing.T) {
	a, cert := hospitalPremises(t)
	cat := hospital.TinyCatalog()
	data := sqlmini.CatalogData{Catalog: cat}
	if b := BrokenPremises(a, cert.Premises, data); len(b) != 0 {
		t.Fatalf("premises broken on the data they describe: %v", b)
	}
	cases := []struct {
		name, db, table string
		row             []string
		want            string
	}{
		{"duplicate key", "DB3", "billing", []string{"t1", "5"}, "key DB3:billing(trId)"},
		{"dangling visit fk", "DB1", "visitInfo", []string{"s1", "t99", "d1"},
			"fkey DB1:visitInfo(trId) -> DB3:billing(trId)"},
		{"dangling procedure fk", "DB4", "procedure", []string{"t1", "t99"},
			"fkey DB4:procedure(trId2) -> DB3:billing(trId)"},
	}
	for _, tc := range cases {
		db, err := cat.Database(tc.db)
		if err != nil {
			t.Fatal(err)
		}
		mutate := func(op string) {
			if res, err := db.Mutate(tc.table, op, tc.row); err != nil || res.Affected != 1 {
				t.Fatalf("%s: %s = %+v, %v", tc.name, op, res, err)
			}
		}
		mutate(relstore.OpInsert)
		if b := BrokenPremises(a, cert.Premises, data); !equalStrings(b, []string{tc.want}) {
			t.Errorf("%s: broken %v, want [%s]", tc.name, b, tc.want)
		}
		mutate(relstore.OpDelete)
		if b := BrokenPremises(a, cert.Premises, data); len(b) != 0 {
			t.Errorf("%s: still broken after undoing the write: %v", tc.name, b)
		}
	}
}

// TestBrokenPremisesMultiColumn: composite keys and foreign keys are
// decided on the whole column tuple, not column by column.
func TestBrokenPremisesMultiColumn(t *testing.T) {
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB1")
	pair := db.CreateTable("pair", relstore.MustSchema("a:string", "b:int"))
	ref := db.CreateTable("ref", relstore.MustSchema("x:string", "y:int", "z:string"))
	cat.Add(db)
	for _, r := range [][]any{{"p", 1}, {"p", 2}, {"q", 1}} {
		if err := pair.InsertValues(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.InsertValues("p", 2, "r1"); err != nil {
		t.Fatal(err)
	}
	a := &aig.AIG{
		SourceKeys: []aig.SourceKey{{Source: "DB1", Table: "pair", Cols: []string{"a", "b"}}},
		SourceFKs: []aig.SourceFK{{Source: "DB1", Table: "ref", Cols: []string{"x", "y"},
			RefSource: "DB1", RefTable: "pair", RefCols: []string{"a", "b"}}},
	}
	key, fk := "key "+a.SourceKeys[0].String(), "fkey "+a.SourceFKs[0].String()
	premises := []string{key, fk}
	data := sqlmini.CatalogData{Catalog: cat}
	if b := BrokenPremises(a, premises, data); len(b) != 0 {
		t.Fatalf("composite premises broken on valid data: %v", b)
	}
	// (q, 2): each value occurs in pair on its own, the tuple does not.
	if err := ref.InsertValues("q", 2, "r2"); err != nil {
		t.Fatal(err)
	}
	if b := BrokenPremises(a, premises, data); !equalStrings(b, []string{fk}) {
		t.Errorf("dangling composite reference: broken %v, want [%s]", b, fk)
	}
	if err := pair.InsertValues("q", 2); err != nil {
		t.Fatal(err)
	}
	if b := BrokenPremises(a, premises, data); len(b) != 0 {
		t.Errorf("reference resolved, still broken: %v", b)
	}
	if err := pair.InsertValues("p", 1); err != nil {
		t.Fatal(err)
	}
	if b := BrokenPremises(a, premises, data); !equalStrings(b, []string{key}) {
		t.Errorf("duplicate composite key: broken %v, want [%s]", b, key)
	}
}

// unreadable is a data provider without direct table access, like a
// registry over TCP-served sources.
type unreadable struct{}

func (unreadable) TableData(source, table string) (*relstore.Table, error) {
	return nil, errors.New("no direct table access")
}

// TestBrokenPremisesUnresolvable: a premise the data cannot answer for
// counts as broken, never as holding.
func TestBrokenPremisesUnresolvable(t *testing.T) {
	a, cert := hospitalPremises(t)
	if b := BrokenPremises(a, cert.Premises, unreadable{}); len(b) != len(cert.Premises) {
		t.Errorf("unreadable source: broken %v, want all of %v", b, cert.Premises)
	}

	missing := &aig.AIG{
		SourceKeys: []aig.SourceKey{
			{Source: "DB3", Table: "nosuch", Cols: []string{"trId"}},
			{Source: "DB3", Table: "billing", Cols: []string{"nosuch"}},
		},
		SourceFKs: []aig.SourceFK{{Source: "DB1", Table: "visitInfo", Cols: []string{"trId"},
			RefSource: "DB9", RefTable: "billing", RefCols: []string{"trId"}}},
	}
	premises := []string{
		"key " + missing.SourceKeys[0].String(),
		"key " + missing.SourceKeys[1].String(),
		"fkey " + missing.SourceFKs[0].String(),
		"key DB3:billing(price)", // not declared by the grammar
	}
	data := sqlmini.CatalogData{Catalog: hospital.TinyCatalog()}
	if b := BrokenPremises(missing, premises, data); !equalStrings(b, premises) {
		t.Errorf("unresolvable premises: broken %v, want all of %v", b, premises)
	}
}
