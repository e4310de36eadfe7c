package mediator

import (
	"context"
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
)

// ctxNode is one occurrence of an element type in the DTD's template tree
// — the unit at which the mediator materializes instance tables and
// computes synthesized attributes. Distinguishing occurrences (Fig. 6
// shows trId once under treatment and once under item) is what keeps the
// dependency graph acyclic when a type is shared between independent
// subtrees.
type ctxNode struct {
	idx      int // pre-order position: the context's slot in the instance store
	path     string
	elem     string
	parent   *ctxNode
	children []*ctxNode // production order; one per occurrence
	tag      tagFacts
	// pruned marks a context a Verdict dropped: it has no instance
	// table, no queries, no children and no place in the document.
	pruned bool
	// complete reports that nothing below the context is pruned, so its
	// synthesized attribute can be computed.
	complete bool
}

// Verdict prunes a plan to the contexts one fragment of the document
// reads (xpath.Verdict is the one the server passes). Keep reports
// whether the instances of child type under parent type can reach the
// fragment, or feed an inherited attribute that does; child "" is a
// choice's condition query. Key names the verdict in the plan cache,
// beside the grammar and the unfolding depth.
type Verdict interface {
	Keep(parent, child string) bool
	Key() string
}

// buildContextTree expands the (non-recursive) DTD into its template
// tree and returns its root and its number of contexts. A context whose
// edge keep rejects (nil keeps everything) is a pruned stub: it takes no
// store slot and is not expanded, and a choice whose condition is
// rejected has every branch pruned.
func buildContextTree(d *dtd.DTD, keep func(parent, child string) bool) (*ctxNode, int, error) {
	if d.IsRecursive() {
		return nil, 0, fmt.Errorf("mediator: the DTD is recursive; unfold it first (specialize.Unfold) or use EvaluateRecursive")
	}
	count := 0
	var expand func(elem, path string, parent *ctxNode) *ctxNode
	expand = func(elem, path string, parent *ctxNode) *ctxNode {
		n := &ctxNode{idx: count, path: path, elem: elem, parent: parent, complete: true}
		count++
		p, _ := d.Production(elem)
		occ := make(map[string]int)
		for _, c := range p.Children {
			occ[c]++
			childPath := path + "/" + c
			if occ[c] > 1 {
				childPath = fmt.Sprintf("%s#%d", childPath, occ[c])
			}
			if keep != nil && (!keep(elem, c) || p.Kind == dtd.ProdChoice && !keep(elem, "")) {
				n.children = append(n.children, &ctxNode{idx: -1, path: childPath, elem: c, parent: n, pruned: true})
				n.complete = false
				continue
			}
			ch := expand(c, childPath, n)
			n.children = append(n.children, ch)
			n.complete = n.complete && ch.complete
		}
		return n
	}
	root := expand(d.Root, d.Root, nil)
	return root, count, nil
}

// child returns the first child occurrence of the given element type.
func (c *ctxNode) child(elem string) *ctxNode {
	for _, ch := range c.children {
		if ch.elem == elem {
			return ch
		}
	}
	return nil
}

// nodeKind discriminates graph nodes.
type nodeKind int

const (
	nodeQuery nodeKind = iota // executes at a real source
	nodeLocal                 // mediator-side application code
)

// edge is a producer-consumer dependency in the query dependency graph,
// annotated with the estimated shipped volume; the measured volume of one
// evaluation is exec.edgeBytes[idx].
type edge struct {
	idx      int
	from, to *node
	estBytes float64
	// producers, set when edges are rewired around merged nodes, lists
	// the original producing nodes this edge stands for: the consumer
	// receives only those parts' outputs ("the relevant tuples from Q are
	// extracted before shipping", §5.4).
	producers []*node
}

// node is one vertex of the dependency graph: a (possibly merged) query
// at a source, or a local mediator task. Nodes are immutable once the plan
// is prepared; what one evaluation measures lives in exec.nodes[idx].
type node struct {
	idx    int
	name   string
	span   string // "node:"+name, the name of its execution span
	kind   nodeKind
	source string
	in     []*edge
	out    []*edge

	// Query nodes execute their parts in order; merging fuses nodes by
	// concatenating parts (§5.4).
	parts []*part
	// items, set on merged nodes, interleaves query parts with absorbed
	// local tasks in dependency order.
	items []mergedItem

	// Local nodes run application code against the store; they report the
	// number of rows touched so the virtual clock can charge
	// MediatorRowCostSec.
	runLocal func(x *exec) (rows int, err error)

	// Compile-time estimates (for Schedule/Merge).
	estCost     float64
	estOutBytes float64
}

// part is one original query inside a (possibly merged) query node, or
// one step of a truncation probe. Its output in one evaluation is
// exec.partOut[idx], its parameter tables exec.parts[idx].
type part struct {
	idx       int
	name      string
	rw        *rewritten
	source    string // the one source the query reads, or MediatorSource
	origin    *node  // the pre-merge node that owned this part
	parentCtx *ctxNode
	// child is the child type whose inherited rule the query belongs to,
	// "" for a choice's condition.
	child string
	// branch restricts the parent instances to those that chose the given
	// alternative of a choice production (0 = no restriction).
	branch int
	// prev is the chain predecessor whose output binds $prev.
	prev *part
	// refs resolves the attribute source of each of rw.specs against
	// parentCtx (nil for parent ids and $prev).
	refs []*ref
	// estimates
	estRows  float64
	estBytes float64
	estCost  float64
}

// graph is the compiled dependency graph and context tree of one
// non-recursive grammar. It holds nothing of any particular evaluation,
// so one graph serves every request (and concurrent ones) until the
// source statistics it was costed with move.
type graph struct {
	a      *aig.AIG
	reg    *source.Registry
	opts   Options
	root   *ctxNode
	nctx   int // contexts in the tree
	nodes  []*node
	edges  []*edge
	nparts int // query and probe parts

	inhDone map[string]*node // ctx path -> barrier: instance table complete
	synOf   map[string]*node // ctx path -> syn computed
	estRows map[string]float64

	// probes holds, for a grammar unfolded from a recursive one, one entry
	// per context the unfolding truncated.
	probes []ctxProbe

	// keep is the pruning verdict the graph was compiled under (nil: the
	// whole document), pruned the number of contexts it dropped.
	keep   func(parent, child string) bool
	pruned int
}

func (g *graph) newNode(kind nodeKind, src, name string) *node {
	n := &node{idx: len(g.nodes), kind: kind, source: src, name: name}
	g.nodes = append(g.nodes, n)
	return n
}

// newQueryNode creates the query node executing the single part pt at the
// part's source.
func (g *graph) newQueryNode(name string, pt *part) *node {
	qn := g.newNode(nodeQuery, pt.source, name)
	pt.idx, pt.name, pt.origin = g.nparts, name, qn
	g.nparts++
	qn.parts = []*part{pt}
	return qn
}

func (g *graph) addEdge(from, to *node, estBytes float64) {
	if from == nil || to == nil {
		return
	}
	link(from, to, estBytes, func() *edge {
		e := &edge{idx: len(g.edges)}
		g.edges = append(g.edges, e)
		return e
	})
}

// link adds estBytes to the edge from nf to nt, creating it from fresh
// when there is none yet, and returns it: nil when nf is nt. It is the
// one find-or-create of an edge, for the built graph (addEdge), Merge's
// trial views and the partition it applies.
func link(nf, nt *node, estBytes float64, fresh func() *edge) *edge {
	if nf == nt {
		return nil
	}
	for _, fe := range nf.out {
		if fe.to == nt {
			fe.estBytes += estBytes
			return fe
		}
	}
	fe := fresh()
	fe.from, fe.to, fe.estBytes = nf, nt, estBytes
	nf.out = append(nf.out, fe)
	nt.in = append(nt.in, fe)
	return fe
}

// attrSchemaFn resolves a rule source reference to its per-tuple binding
// schema within the AIG's declarations.
func (g *graph) attrSchema(src aig.SourceRef) (relstore.Schema, error) {
	var decl aig.AttrDecl
	if src.Side == aig.InhSide {
		decl = g.a.Inh[src.Elem]
	} else {
		decl = g.a.Syn[src.Elem]
	}
	if src.Member == "" {
		return decl.ScalarSchema(), nil
	}
	m, ok := decl.Member(src.Member)
	if !ok {
		return nil, fmt.Errorf("mediator: %s has no member %q", src, src.Member)
	}
	if m.Kind == aig.Scalar {
		return relstore.Schema{{Name: m.Name, Kind: m.ValueKind}}, nil
	}
	return m.Fields, nil
}

// depNodeFor returns the graph node whose completion makes a rule source
// available at the given parent context: the parent's inherited barrier
// for Inh references, the sibling's syn node for Syn references.
func (g *graph) depNodeFor(parentCtx *ctxNode, src aig.SourceRef) (*node, error) {
	if src.Side == aig.InhSide {
		return g.inhDone[parentCtx.path], nil
	}
	sib := parentCtx.child(src.Elem)
	if sib == nil {
		return nil, fmt.Errorf("mediator: %s: no child %q under %s", src, src.Elem, parentCtx.path)
	}
	if !sib.complete {
		return nil, fmt.Errorf("mediator: %s reads Syn(%s), which the plan's verdict pruned below", parentCtx.path, sib.path)
	}
	return g.synOf[sib.path], nil
}

// compile builds the dependency graph for the AIG. ctx carries the
// caller's trace (source Estimate calls made while costing parent under
// the compile-phase span) and cancellation. truncated lists the replica
// types an unfolding cut (specialize.UnfoldInfo), for which truncation
// probes are compiled alongside. keep, when set, prunes the plan to the
// edges it accepts (buildContextTree): a pruned context gets no node, no
// part query and no probe, and only complete contexts compute their
// synthesized attribute. A grammar with guards cannot be pruned, as a
// guard reads the Syn of its context's whole subtree.
func compile(ctx context.Context, a *aig.AIG, reg *source.Registry, opts Options, truncated []specialize.TruncProbe, keep func(parent, child string) bool) (*graph, error) {
	if keep != nil {
		for _, r := range a.Rules {
			if len(r.Guards) > 0 {
				return nil, fmt.Errorf("mediator: %s has guards; a grammar with guards cannot be pruned", r.Elem)
			}
		}
	}
	root, nctx, err := buildContextTree(a.DTD, keep)
	if err != nil {
		return nil, err
	}
	g := &graph{
		a: a, reg: reg, opts: opts, root: root, nctx: nctx, keep: keep,
		inhDone: make(map[string]*node),
		synOf:   make(map[string]*node),
		estRows: make(map[string]float64),
	}

	// Pass 1: create the barrier and syn nodes for every context.
	var mk func(c *ctxNode)
	mk = func(c *ctxNode) {
		if c.pruned {
			g.pruned++
			return
		}
		c.tag = g.tagFacts(c)
		g.inhDone[c.path] = g.newNode(nodeLocal, MediatorSource, "inh:"+c.path)
		if c.complete {
			g.synOf[c.path] = g.newNode(nodeLocal, MediatorSource, "syn:"+c.path)
		}
		for _, ch := range c.children {
			mk(ch)
		}
	}
	mk(root)

	// The root barrier creates the single root instance from the AIG's
	// attribute (bound at execution time via exec.rootInh).
	g.inhDone[root.path].runLocal = func(x *exec) (int, error) {
		t, err := x.ctxs[root.idx].rootTable(a.Inh[root.elem], x.rootInh)
		if err != nil {
			return 0, fmt.Errorf("mediator: root attribute: %v", err)
		}
		x.st.publish(root, t)
		return 1, nil
	}

	// Pass 2: per-context materialization tasks, top-down so estimates
	// cascade.
	g.estRows[root.path] = 1
	if err := g.buildCtx(ctx, root); err != nil {
		return nil, err
	}

	// Pass 3: syn tasks bottom-up.
	var wireSyn func(c *ctxNode) error
	wireSyn = func(c *ctxNode) error {
		if c.pruned {
			return nil
		}
		for _, ch := range c.children {
			if err := wireSyn(ch); err != nil {
				return err
			}
		}
		if !c.complete {
			return nil
		}
		return g.buildSyn(c)
	}
	if err := wireSyn(root); err != nil {
		return nil, err
	}
	if !isAcyclic(g.nodes) {
		return nil, fmt.Errorf("mediator: dependency graph is cyclic")
	}
	if err := g.buildProbes(truncated); err != nil {
		return nil, err
	}
	return g, nil
}

// buildCtx creates the materialization nodes for the children of context
// c and recurses.
func (g *graph) buildCtx(ctx context.Context, c *ctxNode) error {
	p, ok := g.a.DTD.Production(c.elem)
	if !ok {
		return fmt.Errorf("mediator: no production for %q", c.elem)
	}
	r := g.a.Rules[c.elem]

	switch p.Kind {
	case dtd.ProdText, dtd.ProdEmpty:
		// Leaves: nothing to materialize below.
		return nil

	case dtd.ProdSeq:
		for _, ch := range c.children {
			if ch.pruned {
				continue
			}
			var ir *aig.InhRule
			if r != nil {
				ir = r.Inh[ch.elem]
			}
			if err := g.buildEdge(ctx, c, ch, ir, 0, nil, false); err != nil {
				return err
			}
			if err := g.buildCtx(ctx, ch); err != nil {
				return err
			}
		}
		return nil

	case dtd.ProdStar:
		ch := c.children[0]
		if ch.pruned {
			return nil
		}
		var ir *aig.InhRule
		if r != nil {
			ir = r.Inh[ch.elem]
		}
		if ir == nil {
			return fmt.Errorf("mediator: star production of %s has no rule for %s", c.elem, ch.elem)
		}
		if err := g.buildEdge(ctx, c, ch, ir, 0, nil, true); err != nil {
			return err
		}
		return g.buildCtx(ctx, ch)

	case dtd.ProdChoice:
		if r == nil || r.Cond == nil {
			return fmt.Errorf("mediator: choice production of %s has no condition query", c.elem)
		}
		if c.tag.kind == dtd.ProdEmpty {
			return nil // every branch pruned: the condition decides nothing kept
		}
		condNode, err := g.buildCond(ctx, c, r)
		if err != nil {
			return err
		}
		for bi, ch := range c.children {
			if ch.pruned {
				continue
			}
			var ir *aig.InhRule
			if bi < len(r.Branches) {
				ir = r.Branches[bi].Inh
			}
			if err := g.buildEdge(ctx, c, ch, ir, bi+1, condNode, false); err != nil {
				return err
			}
			if err := g.buildCtx(ctx, ch); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("mediator: bad production kind for %s", c.elem)
	}
}
