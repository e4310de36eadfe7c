// Command bench is the repository's one benchmark: it builds aigd from
// the tree, feeds it a generated catalog, drives one of four seeded,
// named workloads over loopback HTTP with tracing off (-trace 0), or
// times every layer through its public functions and replays the
// workload in-process under bench-owned spans (-trace 1). Every response
// is compared with reference bytes computed by the conceptual evaluator.
//
//	go run -C bench . -workload cold_full -seed 42 -seconds 10 -trace 0
//	go run -C bench .            # all four workloads, both modes
//	go run -C bench . -sets 5    # repeatability: spread of every metric
//
// BENCHMARK.json at the repository root declares the metrics; README.md
// here says what each one means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/aigrepro/aig/internal/datagen"
)

func main() {
	workload := flag.String("workload", "", "run one workload: cold_full, warm_hit, fragment_cold or mutate_mix (default: all four, both modes)")
	seed := flag.Int64("seed", 42, "seed for the date order, the fragment predicates and the write stream")
	seconds := flag.Float64("seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced layer run")
	sets := flag.Int("sets", 0, "run this many complete sets on one seed and print the spread of every metric")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *sets); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, sets int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(decl.RunSeconds)
	}
	b := &bench{root: root, outDir: filepath.Join(root, "bench", "out"), decl: decl,
		size: bench250, paperSize: datagen.Small, seed: seed, seconds: seconds}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	if b.daemon, err = buildDaemon(root, b.outDir); err != nil {
		return err
	}
	b.env = environment(root)

	switch {
	case sets > 0:
		return b.runSets(sets)
	case workload != "":
		res, err := b.runOne(workload, trace)
		if err != nil {
			return err
		}
		return finish(res)
	default:
		return b.runAll(func(_ string, res *result) error { return finish(res) })
	}
}

// runAll runs every workload with tracing off, then every workload's
// traced layer run, and hands each result to each.
func (b *bench) runAll(each func(workload string, res *result) error) error {
	for _, mode := range []int{0, 1} {
		for _, w := range workloadNames {
			res, err := b.runOne(w, mode)
			if err == nil {
				err = each(w, res)
			}
			if err != nil {
				return fmt.Errorf("%s -trace %d: %w", w, mode, err)
			}
		}
	}
	return nil
}

// finish prints the contract's result line and turns a failed gate into
// a non-zero exit.
func finish(res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed the correctness gate", res.Failed, res.Attempted)
	}
	return nil
}

// runSets runs complete sets (every workload, both modes) back to back
// on one seed and prints, per metric and workload, the median, the
// quartiles and the spread the contract compares with the bound.
func (b *bench) runSets(n int) error {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 1; set <= n; set++ {
		err := b.runAll(func(w string, res *result) error {
			if !res.Correct {
				return fmt.Errorf("correctness gate failed")
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[w][name] = append(values[w][name], v.Value)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("set %d: %w", set, err)
		}
	}
	fmt.Printf("\n%-34s %-14s %-8s %12s %12s %12s %8s %6s\n", "metric", "workload", "unit", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloadNames {
		for _, d := range append(append([]metricDecl(nil), b.decl.EndToEnd...), b.decl.PerLayer...) {
			v := values[w][d.Name]
			q1, _, q3 := quartiles(v)
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			fmt.Printf("%-34s %-14s %-8s %12.4f %12.4f %12.4f %8.4f %6s\n", d.Name, w, d.Unit, median(v), q1, q3, spread(v), bound)
		}
	}
	return nil
}

// bench is one invocation's fixed context.
type bench struct {
	root, outDir string
	decl         *declaration
	daemon       string // path of the aigd built from this tree
	env          map[string]any
	size         datagen.Size // the catalog the workloads run on
	paperSize    datagen.Size // the Table 1 scale of the paper-scale probe
	seed         int64
	seconds      float64
}

// runOne runs one workload in one mode, prints every metric it measured
// as "name unit value workload", writes the run's record under
// bench/out, and returns the contract's result.
func (b *bench) runOne(workload string, trace int) (*result, error) {
	started := time.Now()
	workDir, err := os.MkdirTemp(b.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	f, err := newFixture(b.size, b.seed)
	if err != nil {
		return nil, err
	}

	var rec *record
	switch trace {
	case 0:
		rec, err = b.endToEnd(f, workload, workDir)
	case 1:
		rec, err = b.layers(f, workload, workDir)
	default:
		err = fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if err != nil {
		return nil, err
	}
	rec.Env, rec.Workload, rec.Seed, rec.Seconds, rec.Clients = b.env, workload, b.seed, b.seconds, numClients
	rec.Catalog = b.size.Name
	rec.ElapsedS = time.Since(started).Seconds()

	mode, decls := "e2e", b.decl.EndToEnd
	if trace == 1 {
		mode, decls = "layers", b.decl.PerLayer
	}
	if err := b.decl.checkDeclared(rec.Metrics); err != nil {
		return nil, err
	}
	res, err := rec.result(decls)
	if err != nil {
		return nil, err
	}
	rec.print(b.decl)
	if err := writeJSON(filepath.Join(b.outDir, workload+"-"+mode+".json"), rec); err != nil {
		return nil, err
	}
	return res, nil
}

func (b *bench) endToEnd(f *fixture, workload, workDir string) (*record, error) {
	p, err := buildPlan(f, workload, b.seconds)
	if err != nil {
		return nil, err
	}
	run, err := runE2E(b.daemon, workDir, f, p, b.seconds, setupRepeats)
	if err != nil {
		return nil, err
	}
	return run.record(), nil
}

// layers is the traced layer run: a short end-to-end pass with tracing
// off for the counters and the per-class latencies, the layer probes,
// then the workload replayed in-process under spans.
func (b *bench) layers(f *fixture, workload, workDir string) (*record, error) {
	p, err := buildPlan(f, workload, b.seconds)
	if err != nil {
		return nil, err
	}
	e2eSeconds := b.seconds / 2
	run, err := runE2E(b.daemon, workDir, f, p.shortened(e2eSeconds), e2eSeconds, 1)
	if err != nil {
		return nil, err
	}
	rec := run.record()
	m := rec.Metrics
	e2eP50 := m["latency_p50_ms"]
	for _, d := range b.decl.EndToEnd {
		delete(m, d.Name) // the end-to-end metrics belong to -trace 0 runs of full length
	}

	s, err := newStack(f.cat)
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()
	budget := time.Duration(b.seconds / 40 * float64(time.Second))
	if err := s.probes(f, m, budget, workDir); err != nil {
		return nil, err
	}
	smallTable, err := probeSmall(b.paperSize, m)
	if err != nil {
		return nil, err
	}
	// The replay sample is that of a full-length run (at least 30 requests
	// on every workload), not of the short end-to-end pass above.
	rp, err := s.replay(f, p, workDir)
	if err != nil {
		return nil, err
	}
	m["serve.http_overhead_us"] = (e2eP50 - rp.primaryMs) * 1e3
	m["trace.unattributed_share"] = 1 - ratio(rp.attributedMs, e2eP50)
	m["trace.overhead_share"] = rp.overhead
	rp.tables["small_render"] = smallTable
	rec.LayerTables = rp.tables
	err = writeJSON(filepath.Join(b.outDir, "trace-"+workload+".json"), map[string]any{
		"env": b.env, "workload": workload, "seed": b.seed, "e2e_p50_ms": e2eP50,
		"layer_tables": rp.tables, "spans": rp.spans,
	})
	return rec, err
}
