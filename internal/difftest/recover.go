package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/relstore/iofault"
)

// Crash-recovery oracle: run a seeded operation sequence against a
// persisted database on the fault-injectable in-memory filesystem,
// fingerprinting the full durable state (rows in order, versions, every
// ChangesSince window) after every operation. Then crash the store at
// chosen WAL offsets — every frame boundary, plus every byte of the
// tail record — recover each image, and require the recovered state to
// equal the fingerprint taken at exactly the surviving WAL prefix. Any
// mismatch is a durability bug: lost, duplicated, half-applied or
// reordered mutations, wrong versions, or a change log that would make
// IVM restamp stale documents.

// RecoverOp is one replayable operation of a recovery torture run: a row
// insert or delete through Database.Mutate — the only writes a persisted
// database journals, and the ones real traffic makes — or an explicit
// snapshot, which journals nothing but rotates the log mid-sequence.
type RecoverOp struct {
	Kind  string   `json:"kind"`
	Table string   `json:"table,omitempty"`
	Row   []string `json:"row,omitempty"`
}

func (op RecoverOp) String() string {
	if op.Kind == "snapshot" {
		return op.Kind
	}
	return fmt.Sprintf("%s %s %v", op.Kind, op.Table, op.Row)
}

// RecoverConfig shapes one torture run.
type RecoverConfig struct {
	// Mutations is the operation count (0 means 20).
	Mutations int `json:"mutations"`
	// SnapshotEvery is the automatic snapshot cadence in WAL records
	// (0 disables automatic snapshots so crashes exercise long replay
	// tails; explicit snapshot ops still rotate).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// LogCap overrides the base tables' change-log limit (0 keeps the
	// default, negative disables delta logging).
	LogCap int `json:"log_cap,omitempty"`
	// TruncateAt, when positive, crashes at that single WAL offset
	// (regression replay); otherwise every frame boundary and every byte
	// of the tail record is swept.
	TruncateAt int64 `json:"truncate_at,omitempty"`
}

func (c RecoverConfig) mutations() int {
	if c.Mutations <= 0 {
		return 20
	}
	return c.Mutations
}

func (c RecoverConfig) snapEvery() int {
	if c.SnapshotEvery == 0 {
		return -1 // explicit ops only, unless configured
	}
	return c.SnapshotEvery
}

// RecoverOutcome summarizes one torture run.
type RecoverOutcome struct {
	// Divergence is nil when every crash image recovered exactly.
	Divergence *Divergence
	// Records is the number of WAL records the run journaled, Snapshots
	// how many snapshot rotations it took, and Crashes how many crash
	// points were recovered and compared.
	Records   int
	Snapshots int
	Crashes   int
	// TruncateAt is the WAL offset of the diverging crash (-1 if none).
	TruncateAt int64
}

// buildRecoverBase is the deterministic starting database for a seed.
func buildRecoverBase(seed int64) *relstore.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDatabase("R")
	a := db.CreateTable("a", relstore.MustSchema("k:string", "n:int"))
	b := db.CreateTable("b", relstore.MustSchema("x:int", "y:string"))
	for i, n := 0, 3+rng.Intn(5); i < n; i++ {
		a.MustInsert(relstore.Tuple{relstore.String(fmt.Sprintf("k%d", rng.Intn(8))), relstore.Int(int64(rng.Intn(10)))})
	}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		b.MustInsert(relstore.Tuple{relstore.Int(int64(rng.Intn(10))), relstore.String(fmt.Sprintf("y%d", rng.Intn(8)))})
	}
	return db
}

// applyRecoverOp performs one op. Preconditions may have been shrunk
// away (a delete whose row is gone); those degrade to no-ops, mirroring
// what the journaled store does.
func applyRecoverOp(db *relstore.Database, p *relstore.Persister, op RecoverOp) error {
	switch op.Kind {
	case "insert", "delete":
		if _, err := db.Mutate(op.Table, op.Kind, op.Row); errors.Is(err, relstore.ErrJournal) {
			return err
		}
		return nil
	case "snapshot":
		if p != nil {
			return p.Snapshot()
		}
		return nil
	default:
		return fmt.Errorf("difftest: unknown recover op %q", op.Kind)
	}
}

// GenerateRecoverOps derives a deterministic op sequence for a seed,
// tracking the evolving state on an unpersisted copy so generated ops
// are valid at their point in the sequence.
func GenerateRecoverOps(seed int64, cfg RecoverConfig) []RecoverOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed1e55))
	db := buildRecoverBase(seed)

	randomRow := func(t *relstore.Table) []string {
		out := make([]string, len(t.Schema()))
		for c, col := range t.Schema() {
			if col.Kind == relstore.KindInt {
				out[c] = fmt.Sprint(rng.Intn(10))
			} else {
				out[c] = fmt.Sprintf("%s%d", col.Name, rng.Intn(8))
			}
		}
		return out
	}

	var ops []RecoverOp
	for len(ops) < cfg.mutations() {
		names := db.TableNames()
		tn := names[rng.Intn(len(names))]
		t, err := db.Table(tn)
		if err != nil {
			continue
		}
		var op RecoverOp
		switch w := rng.Intn(100); {
		case w < 55:
			op = RecoverOp{Kind: "insert", Table: tn, Row: randomRow(t)}
		case w < 95:
			if t.Len() == 0 {
				continue
			}
			op = RecoverOp{Kind: "delete", Table: tn, Row: t.Row(rng.Intn(t.Len())).Texts()}
		default:
			op = RecoverOp{Kind: "snapshot"}
		}
		if err := applyRecoverOp(db, nil, op); err != nil {
			continue
		}
		ops = append(ops, op)
	}
	return ops
}

// recoverFingerprint renders the complete durable state of a database:
// rows in order, table and database versions, and the ChangesSince
// answer at every watermark (content, truncation flag and cause).
func recoverFingerprint(db *relstore.Database) string {
	var b strings.Builder
	fmt.Fprintf(&b, "db %s v%d\n", db.Name(), db.Version())
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "table %s %s v%d\n", name, t.Schema(), t.Version())
		for _, row := range t.Rows() {
			fmt.Fprintf(&b, "  row %s\n", row)
		}
		for since := uint64(0); since <= t.Version()+1; since++ {
			cs := t.ChangesSince(since)
			fmt.Fprintf(&b, "  since %d: now=%d trunc=%v cause=%s", since, cs.Now, cs.Truncated, cs.Cause)
			for _, ch := range cs.Changes {
				fmt.Fprintf(&b, " [v%d %s %s]", ch.Ver, ch.Op, ch.Row)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// CheckRecovery generates the seed's op sequence and tortures it,
// returning the outcome and the sequence (for shrinking and corpus
// filing).
func CheckRecovery(seed int64, cfg RecoverConfig) (RecoverOutcome, []RecoverOp) {
	ops := GenerateRecoverOps(seed, cfg)
	return ReplayRecovery(seed, cfg, ops), ops
}

// ReplayRecovery tortures one explicit op sequence: journal it, then
// crash-and-recover at every chosen WAL offset, comparing against the
// per-prefix fingerprint oracle.
func ReplayRecovery(seed int64, cfg RecoverConfig, ops []RecoverOp) RecoverOutcome {
	out := RecoverOutcome{TruncateAt: -1}
	mkDiv := func(at int64, detail, want, got string) RecoverOutcome {
		out.Divergence = &Divergence{Seed: seed, Leg: "recover", Detail: detail, Want: want, Got: got}
		out.TruncateAt = at
		return out
	}

	fs := iofault.New()
	db := buildRecoverBase(seed)
	if cfg.LogCap != 0 {
		for _, tn := range db.TableNames() {
			if t, err := db.Table(tn); err == nil {
				t.SetChangeLogLimit(cfg.LogCap)
			}
		}
	}
	popts := relstore.PersistOptions{FS: fs, Fsync: relstore.FsyncAlways, SnapshotEvery: cfg.snapEvery()}
	p, err := db.Persist(popts)
	if err != nil {
		return mkDiv(-1, "persist: "+err.Error(), "", "")
	}

	// The oracle: one fingerprint per WAL watermark. Ops that journal
	// nothing (no-ops, snapshots) leave the state — and so the
	// fingerprint — unchanged at their watermark.
	fps := map[uint64]string{p.Seq(): recoverFingerprint(db)}
	for i, op := range ops {
		if err := applyRecoverOp(db, p, op); err != nil {
			return mkDiv(-1, fmt.Sprintf("op %d (%s): %v", i, op, err), "", "")
		}
		fps[p.Seq()] = recoverFingerprint(db)
	}
	out.Records = int(p.Seq())
	out.Snapshots = int(p.SnapshotSeq()) // records covered by the last rotation

	wal := fs.Bytes(relstore.WALFile)
	startSeq, ends, err := relstore.InspectWAL(wal)
	if err != nil {
		return mkDiv(-1, "inspect wal: "+err.Error(), "", "")
	}

	// Crash points: each frame boundary and its preceding byte (whole
	// records lost, frames torn mid-header), every byte of the tail
	// record, and a cut inside the WAL header.
	var offsets []int64
	if cfg.TruncateAt > 0 {
		offsets = []int64{cfg.TruncateAt}
	} else {
		seen := map[int64]bool{}
		add := func(off int64) {
			if off >= 0 && off <= int64(len(wal)) && !seen[off] {
				seen[off] = true
				offsets = append(offsets, off)
			}
		}
		add(0)
		add(3)
		for _, e := range ends {
			add(e - 1)
			add(e)
		}
		tailStart := ends[len(ends)-1]
		if len(ends) >= 2 {
			tailStart = ends[len(ends)-2]
		}
		for off := tailStart; off <= int64(len(wal)); off++ {
			add(off)
		}
		sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	}

	for _, off := range offsets {
		img := fs.Image()
		img.Truncate(relstore.WALFile, off)
		rdb, _, err := relstore.Recover(db.Name(), relstore.PersistOptions{FS: img, Fsync: relstore.FsyncAlways})
		if err != nil {
			return mkDiv(off, fmt.Sprintf("truncate@%d: recover: %v", off, err), "", "")
		}
		out.Crashes++
		records := 0
		for i, e := range ends {
			if i > 0 && e <= off {
				records++
			}
		}
		wantSeq := startSeq - 1 + uint64(records)
		want, ok := fps[wantSeq]
		if !ok {
			return mkDiv(off, fmt.Sprintf("truncate@%d: no oracle fingerprint at seq %d", off, wantSeq), "", "")
		}
		if got := recoverFingerprint(rdb); got != want {
			return mkDiv(off,
				fmt.Sprintf("truncate@%d (seq %d of %d): recovered state differs from pre-crash oracle", off, wantSeq, startSeq-1+uint64(len(ends)-1)),
				want, got)
		}
	}
	return out
}
