package difftest

import (
	"encoding/json"
	"testing"
)

func TestCheckRecoverySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		out, ops := CheckRecovery(seed, RecoverConfig{Mutations: 12})
		if out.Divergence != nil {
			t.Fatalf("seed %d diverged @%d: %s\nops: %v\nwant:\n%s\ngot:\n%s",
				seed, out.TruncateAt, out.Divergence.Detail, ops, out.Divergence.Want, out.Divergence.Got)
		}
		if out.Records == 0 || out.Crashes == 0 {
			t.Fatalf("seed %d: degenerate run %+v", seed, out)
		}
	}
}

func TestCheckRecoveryWithAutoSnapshots(t *testing.T) {
	// Snapshot every 3 records so the sweep crosses rotations: crashes
	// must land on snapshot state + short replay tails.
	out, _ := CheckRecovery(3, RecoverConfig{Mutations: 12, SnapshotEvery: 3})
	if out.Divergence != nil {
		t.Fatalf("diverged @%d: %s", out.TruncateAt, out.Divergence.Detail)
	}
	if out.Snapshots == 0 {
		t.Fatalf("auto-snapshot cadence never rotated: %+v", out)
	}
}

// TestRecoverCountsSnapshotRotations: the outcome counts rotations, not
// a WAL watermark, so a run with N explicit snapshot ops reports at
// least N (automatic ones add to them).
func TestRecoverCountsSnapshotRotations(t *testing.T) {
	ops := []RecoverOp{
		{Kind: "insert", Table: "a", Row: []string{"k1", "1"}},
		{Kind: "snapshot"},
		{Kind: "insert", Table: "b", Row: []string{"2", "y2"}},
		{Kind: "snapshot"},
		{Kind: "snapshot"},
		{Kind: "insert", Table: "a", Row: []string{"k2", "3"}},
	}
	for _, every := range []int{0, 2} {
		out := ReplayRecovery(1, RecoverConfig{SnapshotEvery: every}, ops)
		if out.Divergence != nil {
			t.Fatalf("snapshot every %d: diverged @%d: %s", every, out.TruncateAt, out.Divergence.Detail)
		}
		if out.Snapshots < 3 || out.Snapshots > out.Records+3 {
			t.Errorf("snapshot every %d: %d rotations over %d records, want 3 explicit ones at least", every, out.Snapshots, out.Records)
		}
	}
}

func TestCheckRecoveryLogCaps(t *testing.T) {
	// A tiny delta log and a disabled log stress the truncation-cause
	// bookkeeping that must survive crashes byte-exactly.
	for _, cap := range []int{1, -1} {
		out, _ := CheckRecovery(5, RecoverConfig{Mutations: 10, LogCap: cap})
		if out.Divergence != nil {
			t.Fatalf("logcap %d diverged @%d: %s", cap, out.TruncateAt, out.Divergence.Detail)
		}
	}
}

func TestRecoverOpsRoundTripJSON(t *testing.T) {
	// Regressions replay from JSON: the generated sequence must survive a
	// marshal round trip and reproduce the identical outcome.
	cfg := RecoverConfig{Mutations: 10}
	out, ops := CheckRecovery(7, cfg)
	if out.Divergence != nil {
		t.Fatalf("seed 7 diverged: %s", out.Divergence.Detail)
	}
	data, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	var back []RecoverOp
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	out2 := ReplayRecovery(7, cfg, back)
	if out2.Divergence != nil {
		t.Fatalf("round-tripped ops diverged: %s", out2.Divergence.Detail)
	}
	if out2.Records != out.Records || out2.Crashes != out.Crashes {
		t.Fatalf("round trip changed outcome: %+v vs %+v", out, out2)
	}
}
