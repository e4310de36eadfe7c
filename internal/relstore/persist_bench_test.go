package relstore

import (
	"fmt"
	"testing"
)

// The write-path cost of durability: inserts against a bare table, a
// journaled table without flushing, and a journaled table fsyncing every
// record. Run them with `go test -run '^$' -bench Insert ./internal/relstore`;
// the served write path end to end is `go run -C bench . -workload mutate_mix`.

func benchInsert(b *testing.B, persist bool, fsync FsyncMode) {
	b.Helper()
	db := NewDatabase("B")
	t := NewTable("t", MustSchema("k:string", "n:int"))
	db.AddTable(t)
	if persist {
		p, err := db.Persist(PersistOptions{Dir: b.TempDir(), Fsync: fsync, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
	}
	rows := make([]Tuple, 1024)
	for i := range rows {
		rows[i] = Tuple{String(fmt.Sprintf("k%04d", i)), Int(int64(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.MustInsert(rows[i%len(rows)])
	}
}

func BenchmarkInsertNoWAL(b *testing.B)       { benchInsert(b, false, FsyncNever) }
func BenchmarkInsertWALNoFsync(b *testing.B)  { benchInsert(b, true, FsyncNever) }
func BenchmarkInsertWALFsyncAll(b *testing.B) { benchInsert(b, true, FsyncAlways) }
