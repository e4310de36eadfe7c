// Command aigdiff fuzzes the AIG evaluation stack: it generates random
// instances (internal/randaig) and pushes each through the differential
// oracle (internal/difftest) — conceptual evaluation, the full mediator
// option matrix, runtime re-unrolling of recursion, the constraint and
// DTD cross-checks, and optionally TCP-served sources — reporting any
// divergence between paths that are specified to agree.
//
// Usage:
//
//	aigdiff [-seed N] [-n N | -duration D] [-remote] [-shrink]
//	        [-ivm | -certify | -fragment | -recover] [-mutations N]
//	        [-paths N] [-logcap N] [-snapevery N] [-corpus dir] [-json file]
//
// Seeds run consecutively from -seed. With -duration, aigdiff runs until
// the wall clock expires instead of a fixed count. A divergence is
// printed as a replayable regression ({seed, config, ops} here, plus
// the mode and its sequence in the modes below); with -corpus it is
// also saved there as a regression file. -shrink first minimizes the
// sequence the mode replays — the instance itself (dropping
// constraints, pruning grammar children, deleting table rows), or the
// mutation or operation sequence, any path set held fixed — keeping the
// divergence on the leg it was found on. -json writes run statistics
// (instances and oracle evaluations per second) to the given file. The
// exit status is 0 when every instance agreed on every path, 1 when a
// divergence was found, and 2 on usage failure.
//
// With -ivm, each instance is instead pushed through the incremental
// view maintenance oracle: a sequence of -mutations random row inserts
// and deletes is replayed against the instance's sources, a cached
// document is maintained the way the serving layer's refresher would —
// change-log deltas judged against the view's extracted dependencies,
// restamp when provably irrelevant, full re-evaluation otherwise — and
// after every step the maintained document is compared byte-for-byte
// against a from-scratch evaluation. -logcap overrides the change-log
// limit (negative disables delta logging entirely, forcing the
// truncation fallback on every step).
//
// With -certify, each instance is pushed through the certification
// soundness oracle: the relational keys and foreign keys that genuinely
// hold on the generated data are discovered and declared as source
// premises, the static certifier (internal/propagate) proves XML
// constraints from them, and across the mutation sequence every
// must-hold verdict whose premises survive is checked against the
// evaluated document — a runtime violation of a certified constraint is
// a certifier soundness bug, reported on leg "certify". Mutations that
// falsify a premise void the affected obligations instead. At every step
// the grammar compiled with guards only for unproven constraints (what
// aigd serves) is also compared with the fully guarded one through the
// mediator: byte-equal while the used premises hold, and rejecting
// exactly when the guarded grammar aborts (post-hoc check) once one
// breaks.
//
// With -fragment, each instance is pushed through the fragment serving
// oracle: -paths random path expressions are derived from the instance's
// DTD, and after every mutation of a -mutations sequence two fragments
// for each path are compared byte-for-byte against the post-hoc oracle
// (full constraint-free render, then xpath.Select): the partial
// evaluator's, and the mediator's plan pruned to the path's verdict and
// streamed through the path sink, whose queries must all be judged by
// the path-filtered dependency map. Every Unaffected verdict from that
// judge is checked against the actual fragment bytes. A state where the
// full render fails compares no path, but the mediator's unpruned plan
// must fail there too; the summary counts those states.
//
// With -recover, aigdiff tortures the durable relstore instead: each
// seed derives a deterministic database plus a sequence of row inserts
// and deletes (the only WAL record kinds) and explicit snapshots,
// journals it on the fault-injectable in-memory filesystem, and then crashes the store at
// every WAL frame boundary and at every byte offset of the tail record.
// Each crash image is recovered and compared — rows, versions, and the
// full ChangesSince behaviour at every watermark — against a
// fingerprint oracle of the exact surviving WAL prefix. -mutations and
// -logcap apply as in -ivm mode; -snapevery sets an automatic snapshot
// cadence in records (0, the default, snapshots only at explicit
// points).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/aigrepro/aig/internal/difftest"
	"github.com/aigrepro/aig/internal/randaig"
)

// stats is the -json payload.
type stats struct {
	Seed            int64   `json:"seed"`
	Instances       int     `json:"instances"`
	Evals           int     `json:"evals"`
	Aborts          int     `json:"aborts"`
	Recursive       int     `json:"recursive"`
	Seconds         float64 `json:"seconds"`
	InstancesPerSec float64 `json:"instances_per_sec"`
	EvalsPerSec     float64 `json:"evals_per_sec"`
	Divergences     int     `json:"divergences"`

	// IVM-mode counters (-ivm).
	Steps     int `json:"steps,omitempty"`
	Restamps  int `json:"restamps,omitempty"`
	Fulls     int `json:"full_refreshes,omitempty"`
	Truncated int `json:"truncated_windows,omitempty"`
	Skipped   int `json:"skipped,omitempty"`

	// Fragment-mode counters (-fragment).
	Paths        int `json:"paths,omitempty"`
	Checks       int `json:"path_comparisons,omitempty"`
	EvalFailures int `json:"eval_failed_states,omitempty"`

	// Recovery-mode counters (-recover).
	Records   int `json:"wal_records,omitempty"`
	Snapshots int `json:"snapshots,omitempty"`
	Crashes   int `json:"crashes,omitempty"`

	// Certification-mode counters (-certify).
	Keys        int `json:"keys,omitempty"`
	FKs         int `json:"fkeys,omitempty"`
	MustHold    int `json:"must_hold,omitempty"`
	Unknown     int `json:"unknown,omitempty"`
	Violated    int `json:"violated,omitempty"`
	Asserted    int `json:"asserted,omitempty"`
	Voided      int `json:"voided,omitempty"`
	Unevaluated int `json:"unevaluated,omitempty"`
	Pruned      int `json:"pruned_comparisons,omitempty"`
	Fallbacks   int `json:"broken_premise_comparisons,omitempty"`
}

func main() {
	seed := flag.Int64("seed", 0, "first generation seed")
	n := flag.Int("n", 100, "number of instances to check")
	duration := flag.Duration("duration", 0, "run for this long instead of a fixed -n")
	remote := flag.Bool("remote", false, "include the TCP remote-source leg (slower)")
	shrink := flag.Bool("shrink", false, "minimize a failing instance before reporting it")
	ivmMode := flag.Bool("ivm", false, "run the incremental view maintenance oracle instead of the evaluation matrix")
	certifyMode := flag.Bool("certify", false, "run the static-certification soundness oracle instead of the evaluation matrix")
	fragmentMode := flag.Bool("fragment", false, "run the fragment serving oracle (partial evaluation and the pruned mediator plan vs post-hoc path filter) instead of the evaluation matrix")
	recoverMode := flag.Bool("recover", false, "run the crash-recovery torture oracle instead of the evaluation matrix")
	mutations := flag.Int("mutations", 25, "mutations per instance in -ivm mode")
	nPaths := flag.Int("paths", 3, "path expressions per instance in -fragment mode")
	logCap := flag.Int("logcap", 0, "change-log limit in -ivm mode (0 default, <0 disables delta logging)")
	snapEvery := flag.Int("snapevery", 0, "automatic snapshot cadence in WAL records in -recover mode (0 = explicit snapshots only)")
	corpus := flag.String("corpus", "", "directory to save shrunk failures as regression files")
	jsonPath := flag.String("json", "", "write run statistics as JSON to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: aigdiff [-seed N] [-n N | -duration D] [-remote] [-shrink] [-ivm | -certify | -fragment | -recover] [-mutations N] [-paths N] [-logcap N] [-snapevery N] [-corpus dir] [-json file]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	modes := 0
	for _, m := range []bool{*ivmMode, *certifyMode, *fragmentMode, *recoverMode} {
		if m {
			modes++
		}
	}
	if flag.NArg() != 0 || modes > 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := randaig.DefaultConfig()
	st := stats{Seed: *seed}
	start := time.Now()
	deadline := time.Time{}
	if *duration > 0 {
		deadline = start.Add(*duration)
	}

	exit := 0
	for s := *seed; ; s++ {
		if deadline.IsZero() {
			if st.Instances >= *n {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		// reg records the seed's run in the shape the corpus replays.
		var reg difftest.Regression
		var div *difftest.Divergence
		if *recoverMode {
			rcfg := difftest.RecoverConfig{Mutations: *mutations, SnapshotEvery: *snapEvery, LogCap: *logCap}
			out, ops := difftest.CheckRecovery(s, rcfg)
			st.Instances++
			st.Records += out.Records
			st.Snapshots += out.Snapshots
			st.Crashes += out.Crashes
			// Pin the diverging crash offset so the regression replays a
			// single truncation instead of the whole sweep.
			if out.TruncateAt > 0 {
				rcfg.TruncateAt = out.TruncateAt
			}
			reg = difftest.Regression{Seed: s, Mode: "recover", RecoverOps: ops, RecoverCfg: &rcfg}
			div = out.Divergence
		} else {
			inst, err := randaig.Generate(s, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aigdiff: seed %d: generate: %v\n", s, err)
				os.Exit(2)
			}
			st.Instances++
			if inst.Recursive {
				st.Recursive++
			}
			reg = difftest.Regression{Seed: s, Config: cfg}
			switch {
			case *ivmMode:
				reg.Mode, reg.LogCap = "ivm", *logCap
				reg.Mutations = difftest.GenerateMutations(inst, s, *mutations)
				out := difftest.CheckIVM(inst, reg.Mutations, difftest.IVMOptions{LogCap: *logCap})
				// Every step evaluates the oracle once, plus a full refresh when
				// the judge found no proof, plus the initial evaluation.
				st.Evals += 1 + out.Steps + out.Fulls
				st.Steps += out.Steps
				st.Restamps += out.Restamps
				st.Fulls += out.Fulls
				st.Truncated += out.Truncated
				if out.Skipped {
					st.Skipped++
				}
				div = out.Divergence
			case *fragmentMode:
				reg.Mode = "fragment"
				reg.Paths = difftest.GenerateFragmentPaths(inst, s, *nPaths)
				if len(reg.Paths) == 0 {
					st.Skipped++
					continue
				}
				st.Paths += len(reg.Paths)
				reg.Mutations = difftest.GenerateMutations(inst, s, *mutations)
				out := difftest.CheckFragment(inst, reg.Paths, reg.Mutations, difftest.FragmentOptions{})
				// Every check evaluates the oracle, the partial evaluator and
				// the pruned plan once; a state where the oracle fails runs it
				// and the unpruned plan.
				st.Evals += 3*out.Checks + 2*out.EvalFailures
				st.Steps += out.Steps
				st.Checks += out.Checks
				st.EvalFailures += out.EvalFailures
				st.Restamps += out.Restamps
				st.Fulls += out.Fulls
				if out.Skipped {
					st.Skipped++
				}
				div = out.Divergence
			case *certifyMode:
				reg.Mode = "certify"
				reg.Mutations = difftest.GenerateMutations(inst, s, *mutations)
				out := difftest.CheckCertify(inst, reg.Mutations, difftest.CertifyOptions{})
				st.Evals += out.Evals
				st.Steps += out.Steps
				st.Keys += out.Keys
				st.FKs += out.FKs
				st.MustHold += out.MustHold
				st.Unknown += out.Unknown
				st.Violated += out.Violated
				st.Asserted += out.Asserted
				st.Voided += out.Voided
				st.Unevaluated += out.Unevaluated
				st.Pruned += out.Pruned
				st.Fallbacks += out.Fallbacks
				div = out.Divergence
			default:
				reg.Remote = *remote
				out := difftest.Check(inst, difftest.Options{Remote: *remote})
				st.Evals += out.Evals
				if out.Aborted {
					st.Aborts++
				}
				div = out.Divergence
			}
		}
		if div == nil {
			continue
		}
		st.Divergences++
		exit = 1
		reg.Leg, reg.Note = div.Leg, div.Detail
		report(reg, div, *shrink, *corpus)
	}

	st.Seconds = time.Since(start).Seconds()
	if st.Seconds > 0 {
		st.InstancesPerSec = float64(st.Instances) / st.Seconds
		st.EvalsPerSec = float64(st.Evals) / st.Seconds
	}
	if *recoverMode {
		fmt.Printf("aigdiff -recover: %d seeds, %d WAL records journaled, %d snapshot rotations, %d crash images recovered and compared in %.2fs, %d divergences\n",
			st.Instances, st.Records, st.Snapshots, st.Crashes, st.Seconds, st.Divergences)
	} else if *certifyMode {
		fmt.Printf("aigdiff -certify: %d instances, %d keys + %d fkeys discovered, verdicts %d must-hold / %d unknown / %d violated; %d mutation steps: %d assertions, %d voided, %d unevaluated; %d pruned-vs-guarded comparisons (%d on broken premises) in %.2fs, %d divergences\n",
			st.Instances, st.Keys, st.FKs, st.MustHold, st.Unknown, st.Violated,
			st.Steps, st.Asserted, st.Voided, st.Unevaluated, st.Pruned, st.Fallbacks, st.Seconds, st.Divergences)
	} else if *fragmentMode {
		fmt.Printf("aigdiff -fragment: %d instances (%d skipped), %d paths, %d mutation steps, %d fragment comparisons: %d restamps, %d rebuilds; %d states skipped where the full evaluation failed (the unpruned plan failed too) in %.2fs, %d divergences\n",
			st.Instances, st.Skipped, st.Paths, st.Steps, st.Checks, st.Restamps, st.Fulls, st.EvalFailures, st.Seconds, st.Divergences)
	} else if *ivmMode {
		fmt.Printf("aigdiff -ivm: %d instances (%d skipped), %d mutation steps: %d restamps, %d full refreshes, %d truncated windows in %.2fs, %d divergences\n",
			st.Instances, st.Skipped, st.Steps, st.Restamps, st.Fulls, st.Truncated, st.Seconds, st.Divergences)
	} else {
		fmt.Printf("aigdiff: %d instances (%d recursive, %d aborts), %d oracle evaluations in %.2fs (%.1f inst/s, %.1f evals/s), %d divergences\n",
			st.Instances, st.Recursive, st.Aborts, st.Evals, st.Seconds,
			st.InstancesPerSec, st.EvalsPerSec, st.Divergences)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(st, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aigdiff: write %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}

// report prints one divergence, optionally shrinking the sequence its
// mode carries (keeping the divergence's leg), and files the regression.
func report(reg difftest.Regression, div *difftest.Divergence, shrink bool, corpusDir string) {
	fmt.Fprintf(os.Stderr, "%s\n", div.Error())
	if shrink {
		shrunk, sdiv, checks, err := reg.Shrink(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aigdiff: shrink: %v\n", err)
		}
		if sdiv != nil {
			reg, div = shrunk, sdiv
			reg.Note = div.Detail
		}
		switch reg.Mode {
		case "":
			printShrunk(checks, "ops", reg.Ops)
		case "recover":
			printShrunk(checks, "ops", reg.RecoverOps)
		case "fragment":
			printShrunk(checks, fmt.Sprintf("mutations over %d paths", len(reg.Paths)), reg.Mutations)
		default:
			printShrunk(checks, "mutations", reg.Mutations)
		}
	}
	if repro, err := json.Marshal(reg); err == nil {
		fmt.Fprintf(os.Stderr, "aigdiff: repro: %s\n", repro)
	}
	if corpusDir != "" {
		path, err := difftest.SaveRegression(corpusDir, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aigdiff: save regression: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "aigdiff: regression saved to %s\n", path)
	}
}

func printShrunk[T fmt.Stringer](checks int, what string, steps []T) {
	fmt.Fprintf(os.Stderr, "aigdiff: shrunk in %d checks to %d %s:\n", checks, len(steps), what)
	for _, step := range steps {
		fmt.Fprintf(os.Stderr, "  %s\n", step)
	}
}
