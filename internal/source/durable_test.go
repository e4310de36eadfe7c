package source

import (
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
)

// TestOpenDurableSeedAndRecover is the lifecycle a durable source goes
// through: seed on first open, mutate, close; reopen recovers tuples,
// versions AND the change log, so a watermark taken before the restart
// still answers with exact deltas.
func TestOpenDurableSeedAndRecover(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Dir: dir}
	seed := func() (*relstore.Database, error) {
		cat := hospital.TinyCatalog()
		return cat.Database("DB1")
	}

	db, p, err := OpenDurable("DB1", opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	visits, err := db.Table("visitInfo")
	if err != nil {
		t.Fatal(err)
	}
	since := visits.Version()
	visits.MustInsert(relstore.Tuple{
		relstore.String("s9"), relstore.String("t1"), relstore.String("d1")})
	wantVer, wantRows := visits.Version(), visits.Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	db2, p2, err := OpenDurable("DB1", opts, nil) // seed must not be consulted
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	visits2, err := db2.Table("visitInfo")
	if err != nil {
		t.Fatal(err)
	}
	if visits2.Version() != wantVer || visits2.Len() != wantRows {
		t.Fatalf("recovered version/rows %d/%d, want %d/%d",
			visits2.Version(), visits2.Len(), wantVer, wantRows)
	}
	cs := visits2.ChangesSince(since)
	if cs.Truncated {
		t.Fatalf("pre-restart watermark fell off the log: %+v", cs)
	}
	if len(cs.Changes) != 1 {
		t.Fatalf("ChangesSince(%d) = %d changes, want 1", since, len(cs.Changes))
	}
}

// TestOpenDurableEmptySeed: nil seed opens an empty durable database,
// and a restart recovers it without consulting the seed.
func TestOpenDurableEmptySeed(t *testing.T) {
	dir := t.TempDir()
	_, p, err := OpenDurable("X", DurableOptions{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	db2, p2, err := OpenDurable("X", DurableOptions{Dir: dir}, func() (*relstore.Database, error) {
		t.Fatal("seed consulted although persisted state exists")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if names := db2.TableNames(); len(names) != 0 {
		t.Fatalf("recovered tables %v, want none", names)
	}
}
