package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/propagate"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
)

// ParamDecl describes one bindable root parameter of a prepared view: a
// scalar member of the root element's inherited attribute.
type ParamDecl struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// View is one prepared XML view: an AIG whose request-independent
// processing — parse, validation, constraint compilation, multi-source
// query decomposition, and a plan dry run — happened once at
// registration. A request only binds the root inherited attribute and
// evaluates through the shared mediator.
type View struct {
	name string
	// key opens every cache key of this registration: the name and the
	// sequence number AddView assigned, so the entries, hits and
	// singleflight of two registrations of one name never mix.
	key string
	// fingerprint hashes the canonical text (aigspec.Format) of the
	// grammar as registered. A persisted entry carries it, and LoadCache
	// drops an entry whose view's grammar is not the one it was filled by.
	fingerprint string

	// a is the validated grammar as written; sa is the specialized form
	// every evaluation starts from: multi-source queries decomposed, and
	// guards compiled only for the constraints certification could not
	// prove — a proven constraint adds no collector, syn rule or guard.
	// guarded, built only when a guard was pruned, compiles every
	// constraint's guard: it is what a request evaluates once the premises
	// of the pruning proofs cannot be trusted.
	a       *aig.AIG
	sa      *aig.AIG
	guarded *aig.AIG

	med *mediator.Mediator

	// sources is the sorted set of source names the specialized
	// grammar's queries reference — the views' cache entries depend on
	// exactly these data versions.
	sources []string
	params  []ParamDecl
	plan    string
	// direct reports that every source in sources gives direct table
	// access (source.TableDataProvider), which the partial evaluator
	// reads through; without it a path with predicates is served by the
	// plan pruned to its verdict.
	direct bool

	// certified reports that every declared constraint was statically
	// proven (internal/propagate) to hold under the spec's source keys
	// and foreign keys, so sa carries no guard at all.
	certified bool
	cert      *propagate.Certification
	// pruned counts the constraints whose guards were not compiled;
	// premises memoizes Server.premisesHold for one stamp.
	pruned   int
	premises atomic.Pointer[premiseVerdict]

	// deps is the view's judgeable table-dependency map, extracted once
	// from the specialized grammar: the static half of incremental view
	// maintenance the background refresher judges deltas against.
	deps *ivm.Deps

	// lastSize is the byte size of the latest rendered document; the next
	// render's buffer starts at that capacity.
	lastSize atomic.Int64

	// fragPlans memoizes per-path fragment compilation (pushdown analysis,
	// the path's verdict and its dependency map), keyed by canonical
	// rendering.
	fragMu    sync.Mutex
	fragPlans map[string]*fragPlan

	// estDepth is the adaptive warm start for recursion unfolding: the
	// depth that sufficed last time (initialUnfold before the first
	// request), so steady-state requests on stable data evaluate exactly
	// once instead of re-probing upward, up to mediator.UnfoldLimit.
	estDepth atomic.Int32

	// reqSec is the per-view request-latency histogram; kept traces feed
	// it exemplars so its buckets link to retrievable flight-recorder
	// traces.
	reqSec *obs.Histogram
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// Params returns the bindable root parameters.
func (v *View) Params() []ParamDecl { return append([]ParamDecl(nil), v.params...) }

// Sources returns the source names the view reads.
func (v *View) Sources() []string { return append([]string(nil), v.sources...) }

// Plan returns the optimized dependency-graph plan rendered at prepare
// time (at the initial unfolding depth).
func (v *View) Plan() string { return v.plan }

// Certified reports whether every declared constraint is statically
// proven to hold, so the served grammar carries no guard.
func (v *View) Certified() bool { return v.certified }

// Certification returns the static certification computed at prepare
// time.
func (v *View) Certification() *propagate.Certification { return v.cert }

// initialUnfold is a view's unfolding depth before its first request
// has settled one; its plan is rendered at this depth.
const initialUnfold = 4

// prepareView runs the request-independent half of Fig. 5 once: parse
// is the caller's job (specs arrive as *aig.AIG), then validate against
// the live registry, certify the constraints, compile guards for the
// ones certification could not prove, decompose multi-source queries,
// and dry-run plan compilation at the initial unfolding depth so a
// broken view fails at startup, not on the first request.
func prepareView(name string, a *aig.AIG, reg *source.Registry, opts mediator.Options) (*View, error) {
	if err := a.Validate(reg); err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	// Static certification runs on the grammar as written (the chase and
	// the gathering proofs read the pre-specialization rule shapes).
	cert := propagate.Certify(a)
	unproven := propagate.Prune(a, cert)
	sa, err := specializeView(unproven, reg, opts)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}

	deps, err := ivm.Extract(sa, reg)
	if err != nil {
		return nil, fmt.Errorf("view %s: extracting table dependencies: %w", name, err)
	}

	v := &View{
		name:      name,
		a:         a,
		sa:        sa,
		med:       mediator.New(reg, opts),
		sources:   sa.QuerySources(),
		params:    rootParams(a),
		deps:      deps,
		cert:      cert,
		certified: cert.Certified && len(a.Constraints) > 0,
		pruned:    len(a.Constraints) - len(unproven.Constraints),
		fragPlans: make(map[string]*fragPlan),
	}
	v.estDepth.Store(initialUnfold)
	v.direct = true
	for _, name := range v.sources {
		src, err := reg.Get(name)
		if _, ok := src.(source.TableDataProvider); err != nil || !ok {
			v.direct = false
		}
	}
	// Compiling a constraint adds collectors, syn rules and a guard, never
	// a query, so the guarded grammar reads what sa reads: sources, deps
	// and Explain stay those of sa. The mediator plans it on first use.
	if v.pruned > 0 {
		if v.guarded, err = specializeView(a, reg, opts); err != nil {
			return nil, fmt.Errorf("view %s: guarded grammar: %w", name, err)
		}
	}

	// The dry run plans sa at the depth the first request settles at, so
	// that request finds the plan in the mediator's cache.
	plan, err := v.med.Explain(sa, initialUnfold, nil)
	if err != nil {
		return nil, fmt.Errorf("view %s: planning: %w", name, err)
	}
	if len(a.Constraints) > 0 {
		plan += "\n-- static certification --\n" + cert.Summary()
		for _, r := range cert.Results {
			if r.Verdict == propagate.MustHold {
				plan += fmt.Sprintf("guard not compiled: %s  (%s)\n", r.Constraint, r.Reason)
			}
		}
		if len(cert.Premises) > 0 {
			plan += "premises, checked once per data version: " + strings.Join(cert.Premises, "; ") + "\n"
		}
	}
	v.plan = plan
	return v, nil
}

// specializeView compiles a's constraints into guards and decomposes its
// multi-source queries.
func specializeView(a *aig.AIG, reg *source.Registry, opts mediator.Options) (*aig.AIG, error) {
	sa, err := specialize.CompileConstraints(a)
	if err != nil {
		return nil, fmt.Errorf("compiling constraints: %w", err)
	}
	sa, err = specialize.DecomposeQueries(sa, reg, reg, opts.PlanOpts)
	if err != nil {
		return nil, fmt.Errorf("decomposing queries: %w", err)
	}
	return sa, nil
}

// premiseVerdict is the outcome of checking a view's premises on the
// data at one stamp.
type premiseVerdict struct {
	stamp string
	held  bool
}

// premisesHold reports whether the premises of the pruned guards' proofs
// hold on the data at stamp, which the caller read before reading any
// data. The check runs once per stamp: every write path moves the stamp
// (the premises name only tables the grammar's queries read), so none
// needs a check of its own. A stamp that has moved since — a write may
// have broken a premise the caller then read — or a source the check
// cannot read counts as broken, and the caller evaluates v.guarded.
func (s *Server) premisesHold(v *View, stamp string) bool {
	if len(v.cert.Premises) == 0 {
		return true
	}
	pv := v.premises.Load()
	if pv == nil || pv.stamp != stamp {
		pv = &premiseVerdict{stamp, len(propagate.BrokenPremises(v.a, v.cert.Premises, s.reg)) == 0}
	}
	if now, settled, err := s.stamp(v); err != nil || !settled || now != stamp {
		return false
	}
	v.premises.Store(pv)
	return pv.held
}

// unreadablePremiseSources returns, sorted, the sources whose tables v's
// premise check reads but cannot: those without direct table access
// (source.TableDataProvider), as over remote.Client. A premise the check
// cannot read counts as broken, so with any such source every request
// evaluates v.guarded and no fragment uses a verdict.
func unreadablePremiseSources(v *View, reg *source.Registry) []string {
	named := premiseReads{}
	propagate.BrokenPremises(v.a, v.cert.Premises, named)
	var out []string
	for name := range named {
		src, err := reg.Get(name)
		if _, direct := src.(source.TableDataProvider); err == nil && !direct {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// premiseReads is a data provider that reads nothing: it records the
// sources a premise check asks for.
type premiseReads map[string]bool

func (r premiseReads) TableData(src, _ string) (*relstore.Table, error) {
	r[src] = true
	return nil, errors.New("serve: premise sources are only being listed")
}

// rootParams lists the scalar members of the root element's inherited
// attribute — the values a request may bind.
func rootParams(a *aig.AIG) []ParamDecl {
	var out []ParamDecl
	for _, m := range a.Inh[a.DTD.Root].Members {
		if m.Kind == aig.Scalar {
			out = append(out, ParamDecl{Name: m.Name, Kind: m.ValueKind.String()})
		}
	}
	return out
}

// bindParams builds the root inherited attribute from request
// parameters. Every parameter must name a scalar member of the root
// attribute; members left unbound stay null, as with aigrun -param.
func (v *View) bindParams(params map[string]string) (*aig.AttrValue, error) {
	root := v.sa.DTD.Root
	decl := v.sa.Inh[root]
	val := aig.NewAttrValue(decl)
	for name, raw := range params {
		m, ok := decl.Member(name)
		if !ok || m.Kind != aig.Scalar {
			return nil, fmt.Errorf("view %s: Inh(%s) has no scalar member %q", v.name, root, name)
		}
		pv, err := relstore.ParseValue(m.ValueKind, raw)
		if err != nil {
			return nil, fmt.Errorf("view %s: parameter %s: %w", v.name, name, err)
		}
		if err := val.SetScalar(name, pv); err != nil {
			return nil, fmt.Errorf("view %s: parameter %s: %w", v.name, name, err)
		}
	}
	return val, nil
}

// canonicalParams renders a parameter map in canonical order for cache
// keying: names sorted, values escaped so that neither '=' nor '&' in a
// value can collide with the separators.
func canonicalParams(params map[string]string) string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(escapeKeyPart(n))
		b.WriteByte('=')
		b.WriteString(escapeKeyPart(params[n]))
	}
	return b.String()
}

// keyPartReplacer escapes the cache-key separator characters. Built
// once: a Replacer compiles its matching machine lazily on first use,
// which is far too expensive to redo on every cache-key part.
var keyPartReplacer = strings.NewReplacer("%", "%25", "&", "%26", "=", "%3D", "\x00", "%00")

func escapeKeyPart(s string) string {
	return keyPartReplacer.Replace(s)
}
