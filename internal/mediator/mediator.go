// Package mediator implements the middleware system of §5: it compiles a
// specialized AIG into a query dependency graph of set-oriented,
// single-source queries, optimizes the graph by cost-based query merging
// (Algorithm Merge, §5.4) and list scheduling (Algorithm Schedule, §5.3),
// executes the plan with one worker per data source shipping intermediate
// tables through the mediator, and finally tags the cached tables into
// the output XML tree.
//
// The evaluation is set-at-a-time: each semantic-rule query runs once per
// production edge over the entire table of parent instances (rewritten to
// join a parameter table carrying the parent identifiers — the paper's
// "path encoding" columns), instead of once per node as in the conceptual
// evaluator. Both evaluators produce identical documents; the aig package
// tests rely on that.
//
// The response time cost(P) is computed on a virtual clock (the paper
// itself computed total evaluation time "by simulating the transfer of
// temporary tables ... using different bandwidths"). Only communication,
// per-query overheads and the mediator's local work are virtual, and
// those are deterministic; each source query's engine time is its
// measured wall time (exec.runPart), so cost(P) — and ratios of it such
// as Fig. 10's — can differ in the second decimal from run to run. Real
// execution still runs sources concurrently.
package mediator

import (
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
)

// MediatorSource is the pseudo-source name for work executed inside the
// middleware (local tasks, synthesized-attribute computation, tagging).
const MediatorSource = "Mediator"

// NetModel is the simulated communication model used for cost estimation
// and virtual-clock accounting.
type NetModel struct {
	// BandwidthBytesPerSec is the link bandwidth between any two sites.
	// The paper's experiments use 1 Mbps = 125000 bytes/s.
	BandwidthBytesPerSec float64
	// LatencySec is the fixed cost of one shipment.
	LatencySec float64
	// QueryOverheadSec is the fixed cost of issuing one query to a source
	// (opening a connection, parsing and preparing the statement, creating
	// and populating temporary tables — §5.1).
	QueryOverheadSec float64
	// MediatorRowCostSec is the application-code cost per row of
	// mediator-local processing; the prototype middleware "does not
	// possess a relational engine" (§5.5), so local work is slower per
	// tuple than source-engine work.
	MediatorRowCostSec float64
}

// DefaultNet returns the experimental setup of §6: 1 Mbps links with
// small fixed overheads.
func DefaultNet() NetModel {
	return NetModel{
		BandwidthBytesPerSec: 125000, // 1 Mbps
		LatencySec:           0.010,
		QueryOverheadSec:     0.050,
		MediatorRowCostSec:   0.00002,
	}
}

// TransCost returns the simulated seconds to ship b bytes from source s1
// to source s2 (§5.2). Same-site transfers are free; transfers between
// two real sources route through the mediator and pay twice.
func (n NetModel) TransCost(s1, s2 string, bytes int) float64 {
	if s1 == s2 {
		return 0
	}
	hop := n.LatencySec + float64(bytes)/n.BandwidthBytesPerSec
	if s1 != MediatorSource && s2 != MediatorSource {
		return 2 * hop
	}
	return hop
}

// ScheduleAlgo selects the plan's order: one topological order of the
// dependency graph, whose projection onto each source is the sequence
// that source runs. The order is fixed when the plan is prepared; every
// evaluation executes it as it stands, one worker per source.
type ScheduleAlgo int

// The scheduling algorithms.
const (
	// ScheduleLevel is Algorithm Schedule of §5.3: list scheduling by
	// maximum downstream path cost, then construction order, fixed
	// before execution.
	ScheduleLevel ScheduleAlgo = iota
	// ScheduleFIFO is the ablation baseline: queries run in graph
	// construction order, as far as their dependencies allow.
	ScheduleFIFO
)

// Options configures a mediator evaluation.
type Options struct {
	// Merge enables Algorithm Merge (§5.4). Figure 10 is the ratio of
	// evaluation time with Merge off to Merge on.
	Merge bool
	// Schedule selects the order in which each source runs its queries,
	// fixed at plan time.
	Schedule ScheduleAlgo
	// CopyElim enables copy elimination (§4): element types whose
	// inherited attributes are pure projections of their parent's are not
	// materialized; queries read the origin tables directly.
	CopyElim bool
	// Net is the simulated communication model.
	Net NetModel
	// PlanOpts tunes per-source query planning.
	PlanOpts sqlmini.PlanOptions
	// Tracer, when non-nil, records one span tree per evaluation: a root
	// "evaluate" span with one child per Fig. 5 phase (compile, optimize,
	// execute, tag) and, under "execute", one span per dependency-graph
	// node carrying the optimizer's estimates next to the measured
	// actuals. A nil tracer disables tracing at negligible cost.
	Tracer *obs.Tracer
}

// DefaultOptions enables every optimization with the §6 network model.
func DefaultOptions() Options {
	return Options{Merge: true, Schedule: ScheduleLevel, CopyElim: true, Net: DefaultNet()}
}

// Report describes one evaluation: the virtual response time of the
// executed plan (the paper's cost(P)) and volume counters.
type Report struct {
	// ResponseTimeSec is cost(P): the maximum completion time over all
	// plan nodes on the virtual clock, from the run's measured engine
	// times and shipped volumes. Shipping and per-query overheads are
	// virtual and deterministic, but each source query's engine time is
	// its measured wall time, so the value varies slightly between runs
	// of the same plan. It is computed when a Result is built
	// (Evaluate, EvaluateRecursive, ExplainAnalyze); a settled Run's
	// report leaves it zero.
	ResponseTimeSec float64
	// SourceQueryCount is the number of query requests issued to real
	// sources after merging.
	SourceQueryCount int
	// MergedGroups is the number of merged nodes containing >1 query.
	MergedGroups int
	// ShippedBytes is the total simulated communication volume.
	ShippedBytes int
	// NodeCount and EdgeCount describe the final dependency graph.
	NodeCount, EdgeCount int
	// PerSourceBusySec is the summed eval time per source.
	PerSourceBusySec map[string]float64
	// WallSec is the measured wall-clock duration of the evaluation (as
	// opposed to ResponseTimeSec, which runs on the virtual clock).
	WallSec float64
	// PhaseSec maps each Fig. 5 phase — "compile", "optimize", "execute",
	// "tag" — to its measured wall-clock duration in seconds.
	PhaseSec map[string]float64
}

// Result is the outcome of a mediator evaluation.
type Result struct {
	Doc    *xmltree.Node
	Report Report
}
