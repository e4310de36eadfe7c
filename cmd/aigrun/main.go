// Command aigrun evaluates an AIG specification against relational
// sources and writes the integrated XML document:
//
//	aigrun -spec report.aig -data ./data -param date=d001 -o report.xml
//
// Sources come either from CSV directories under -data (one subdirectory
// per database, as written by aiggen) or from remote TCP engines:
//
//	aigrun -spec report.aig -source DB1=host1:7001 -source DB2=host2:7001 ...
//
// By default the optimized mediator of §5 evaluates the grammar
// (constraints compiled to guards, multi-source queries decomposed,
// recursion unfolded adaptively from -unfold up to depth 64, the
// mediator.UnfoldLimit aigd stops at too, queries merged and scheduled).
// The -conceptual flag switches to the tuple-at-a-time reference
// evaluator of §3.2. The output is checked against the DTD and the
// constraints before it is written.
//
// Observability: -explain prints the optimized plan without running it;
// -analyze runs the evaluation and prints the same plan annotated with
// measured times, row counts and estimation errors; -trace FILE writes
// the evaluation's span tree as JSON; -metrics dumps the process's
// runtime counters in Prometheus text format to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/remote"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/xconstraint"
	"github.com/aigrepro/aig/internal/xmltree"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aigrun:", err)
		os.Exit(1)
	}
}

func run() error {
	specPath := flag.String("spec", "", "AIG specification file")
	dataDir := flag.String("data", "", "directory of CSV source databases (one subdirectory per DB)")
	var sources, params repeated
	flag.Var(&sources, "source", "remote source as NAME=ADDR (repeatable)")
	flag.Var(&params, "param", "root attribute member as NAME=VALUE (repeatable)")
	out := flag.String("o", "-", "output file ('-' for stdout)")
	conceptual := flag.Bool("conceptual", false, "use the tuple-at-a-time reference evaluator")
	merge := flag.Bool("merge", true, "enable query merging (mediator)")
	copyElim := flag.Bool("copyelim", true, "enable copy elimination (mediator)")
	unfold := flag.Int("unfold", 4, "initial recursion unfolding depth (mediator)")
	verbose := flag.Bool("v", false, "print the evaluation report")
	explain := flag.Bool("explain", false, "print the optimized query plan instead of evaluating")
	analyze := flag.Bool("analyze", false, "evaluate, then print the executed plan with measured times next to the estimates")
	tracePath := flag.String("trace", "", "write a JSON trace of the evaluation's spans to this file")
	metrics := flag.Bool("metrics", false, "dump runtime metrics (Prometheus text format) to stderr on exit")
	srcTimeout := flag.Duration("source-timeout", 0, "connect/read/write timeout for remote sources (0 disables)")
	flag.Parse()

	if *specPath == "" {
		return fmt.Errorf("missing -spec")
	}
	specText, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	a, err := aigspec.Parse(string(specText))
	if err != nil {
		return err
	}

	reg, err := buildRegistry(*dataDir, sources, *srcTimeout)
	if err != nil {
		return err
	}
	if err := a.Validate(reg); err != nil {
		return err
	}

	rootInh, err := buildRootInh(a, params)
	if err != nil {
		return err
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	if *metrics {
		defer obs.Default.WritePrometheus(os.Stderr)
	}

	if *analyze {
		sa, err := specialize.CompileConstraints(a)
		if err != nil {
			return err
		}
		sa, err = specialize.DecomposeQueries(sa, reg, reg, mediator.DefaultOptions().PlanOpts)
		if err != nil {
			return err
		}
		sa, err = specialize.Unfold(sa, *unfold)
		if err != nil {
			return err
		}
		opts := mediator.DefaultOptions()
		opts.Merge = *merge
		opts.CopyElim = *copyElim
		opts.Tracer = tracer
		plan, _, err := mediator.New(reg, opts).ExplainAnalyze(sa, rootInh)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return writeTrace(*tracePath, tracer)
	}

	if *explain {
		sa, err := specialize.CompileConstraints(a)
		if err != nil {
			return err
		}
		sa, err = specialize.DecomposeQueries(sa, reg, reg, mediator.DefaultOptions().PlanOpts)
		if err != nil {
			return err
		}
		opts := mediator.DefaultOptions()
		opts.Merge = *merge
		opts.CopyElim = *copyElim
		plan, err := mediator.New(reg, opts).Explain(sa, *unfold, nil)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}

	var doc *xmltree.Node
	if *conceptual {
		env := &aig.Env{Schemas: reg, Data: reg, Stats: reg}
		sa, err := specialize.CompileConstraints(a)
		if err != nil {
			return err
		}
		doc, err = sa.Eval(env, rootInh)
		if err != nil {
			return err
		}
	} else {
		sa, err := specialize.CompileConstraints(a)
		if err != nil {
			return err
		}
		sa, err = specialize.DecomposeQueries(sa, reg, reg, mediator.DefaultOptions().PlanOpts)
		if err != nil {
			return err
		}
		opts := mediator.DefaultOptions()
		opts.Merge = *merge
		opts.CopyElim = *copyElim
		opts.Tracer = tracer
		m := mediator.New(reg, opts)
		res, depth, err := m.EvaluateRecursive(sa, rootInh, *unfold, mediator.UnfoldLimit)
		if err != nil {
			return err
		}
		doc = res.Doc
		if *verbose {
			fmt.Fprintf(os.Stderr, "unfold depth: %d\n", depth)
			fmt.Fprintf(os.Stderr, "simulated response time: %.3fs\n", res.Report.ResponseTimeSec)
			fmt.Fprintf(os.Stderr, "wall time: %.3fs (compile %.3fs, optimize %.3fs, execute %.3fs, tag %.3fs)\n",
				res.Report.WallSec, res.Report.PhaseSec["compile"], res.Report.PhaseSec["optimize"],
				res.Report.PhaseSec["execute"], res.Report.PhaseSec["tag"])
			fmt.Fprintf(os.Stderr, "source queries: %d (merged groups: %d)\n",
				res.Report.SourceQueryCount, res.Report.MergedGroups)
			fmt.Fprintf(os.Stderr, "graph: %d nodes, %d edges\n", res.Report.NodeCount, res.Report.EdgeCount)
		}
	}
	if err := writeTrace(*tracePath, tracer); err != nil {
		return err
	}

	// Independent verification before writing.
	if err := dtd.Conforms(a.DTD, doc); err != nil {
		return fmt.Errorf("output violates the DTD: %v", err)
	}
	if v := xconstraint.CheckAll(a.Constraints, doc); len(v) != 0 {
		return fmt.Errorf("output violates constraints: %v", v[0])
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return doc.WriteIndented(w)
}

func writeTrace(path string, tracer *obs.Tracer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildRegistry(dataDir string, sources []string, timeout time.Duration) (*source.Registry, error) {
	reg := source.NewRegistry()
	n := 0
	if dataDir != "" {
		entries, err := os.ReadDir(dataDir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			db, err := relstore.LoadDir(e.Name(), filepath.Join(dataDir, e.Name()))
			if err != nil {
				return nil, err
			}
			reg.Add(source.NewLocal(db))
			n++
		}
	}
	for _, s := range sources {
		name, addr, ok := strings.Cut(s, "=")
		if !ok {
			return nil, fmt.Errorf("-source needs NAME=ADDR, got %q", s)
		}
		client, err := remote.DialTimeouts(name, addr,
			remote.Timeouts{Dial: timeout, Read: timeout, Write: timeout})
		if err != nil {
			return nil, err
		}
		reg.Add(client)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("no sources: pass -data or -source")
	}
	return reg, nil
}

func buildRootInh(a *aig.AIG, params []string) (*aig.AttrValue, error) {
	root := a.DTD.Root
	v := aig.NewAttrValue(a.Inh[root])
	for _, p := range params {
		name, raw, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("-param needs NAME=VALUE, got %q", p)
		}
		m, found := a.Inh[root].Member(name)
		if !found || m.Kind != aig.Scalar {
			return nil, fmt.Errorf("Inh(%s) has no scalar member %q", root, name)
		}
		val, err := relstore.ParseValue(m.ValueKind, raw)
		if err != nil {
			return nil, err
		}
		if err := v.SetScalar(name, val); err != nil {
			return nil, err
		}
	}
	return v, nil
}
