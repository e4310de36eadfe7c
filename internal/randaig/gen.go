package randaig

import (
	"fmt"
	"math/rand"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xconstraint"
)

// Generate builds the instance determined by (seed, cfg). The result is
// statically valid (aig.Validate passes against the generated schemas)
// and its constraint set — except for at most one deliberately violated
// constraint when cfg.AllowViolation — holds on the evaluated document.
func Generate(seed int64, cfg Config) (*Instance, error) {
	cfg = cfg.normalize()
	g := &gen{
		r:   rand.New(rand.NewSource(seed)),
		cfg: cfg,
		cat: relstore.NewCatalog(),
		d:   dtd.New(""),
	}
	g.a = aig.New(g.d)
	for i := 1; i <= cfg.Sources; i++ {
		db := relstore.NewDatabase(fmt.Sprintf("DB%d", i))
		g.dbs = append(g.dbs, db)
		g.cat.Add(db)
	}

	// Root inherited attribute: one pool string, sometimes one pool int.
	rootDecl := aig.Attr(aig.StringMember("m0"))
	if g.r.Float64() < 0.5 {
		rootDecl.Members = append(rootDecl.Members,
			aig.ScalarMember("m1", relstore.KindInt))
	}
	root := g.element(rootDecl, cfg.MaxDepth)
	g.d.Root = root
	g.a.Sources = declaredSources(g.cat)

	rootInh := aig.NewAttrValue(rootDecl)
	for _, m := range rootDecl.Members {
		if err := rootInh.SetScalar(m.Name, g.poolValue(m.ValueKind)); err != nil {
			return nil, fmt.Errorf("randaig: seed %d: root attribute: %v", seed, err)
		}
	}

	inst := &Instance{
		Seed:        seed,
		Cfg:         cfg,
		AIG:         g.a,
		Catalog:     g.cat,
		RootInh:     rootInh,
		Recursive:   g.recursive,
		UnfoldDepth: 1,
	}
	if g.recursive {
		inst.UnfoldDepth = cfg.StringPool + 1
	}

	if err := g.attachConstraints(inst); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("randaig: seed %d generated an invalid grammar: %v", seed, err)
	}
	return inst, nil
}

type gen struct {
	r   *rand.Rand
	cfg Config
	cat *relstore.Catalog
	dbs []*relstore.Database
	a   *aig.AIG
	d   *dtd.DTD

	nElem, nTable int
	types         int
	recursive     bool
}

func (g *gen) freshElem() string {
	name := fmt.Sprintf("e%d", g.nElem)
	g.nElem++
	return name
}

func (g *gen) coin(p float64) bool { return g.r.Float64() < p }

func (g *gen) poolString() string { return fmt.Sprintf("v%02d", g.r.Intn(g.cfg.StringPool)) }

func (g *gen) poolValue(kind relstore.Kind) relstore.Value {
	if kind == relstore.KindInt {
		return relstore.Int(int64(1 + g.r.Intn(g.cfg.IntPool)))
	}
	return relstore.String(g.poolString())
}

// newTable creates a fresh table with the given columns in a random
// source, filled with pool values, and returns (source, table) names.
func (g *gen) newTable(cols relstore.Schema) (string, string) {
	db := g.dbs[g.r.Intn(len(g.dbs))]
	name := fmt.Sprintf("t%d", g.nTable)
	g.nTable++
	t := relstore.NewTable(name, cols)
	n := 2 + g.r.Intn(g.cfg.MaxRows-1)
	if g.coin(0.08) {
		n = 0 // empty-result coverage
	}
	for i := 0; i < n; i++ {
		row := make(relstore.Tuple, len(cols))
		for j, c := range cols {
			row[j] = g.poolValue(c.Kind)
		}
		t.MustInsert(row)
	}
	db.AddTable(t)
	return db.Name(), name
}

func scalarMembers(decl aig.AttrDecl) []aig.MemberDecl {
	var out []aig.MemberDecl
	for _, m := range decl.Members {
		if m.Kind == aig.Scalar {
			out = append(out, m)
		}
	}
	return out
}

func stringScalars(decl aig.AttrDecl) []aig.MemberDecl {
	var out []aig.MemberDecl
	for _, m := range decl.Members {
		if m.Kind == aig.Scalar && m.ValueKind == relstore.KindString {
			out = append(out, m)
		}
	}
	return out
}

func stringSets(decl aig.AttrDecl) []aig.MemberDecl {
	var out []aig.MemberDecl
	for _, m := range decl.Members {
		if m.Kind == aig.Set && len(m.Fields) == 1 && m.Fields[0].Kind == relstore.KindString {
			out = append(out, m)
		}
	}
	return out
}

func (g *gen) pickScalar(decl aig.AttrDecl) aig.MemberDecl {
	s := scalarMembers(decl)
	return s[g.r.Intn(len(s))]
}

func (g *gen) pickStringScalar(decl aig.AttrDecl) aig.MemberDecl {
	s := stringScalars(decl)
	return s[g.r.Intn(len(s))]
}

// element generates one element type with the given inherited attribute
// declaration and returns its name. Invariant: when depth >= 1, decl's
// first member is a string scalar (choice conditions and recursion need
// one). Scalar values bound to decl always come from the closed pools.
func (g *gen) element(decl aig.AttrDecl, depth int) string {
	name := g.freshElem()
	g.a.Inh[name] = decl
	g.types++

	if depth <= 0 || g.types >= g.cfg.TypeBudget {
		g.leaf(name, decl)
		return name
	}
	switch p := g.r.Float64(); {
	case p < 0.40:
		g.seq(name, decl, depth)
	case p < 0.65:
		g.star(name, decl, depth)
	case p < 0.80:
		g.choice(name, decl, depth)
	default:
		g.leaf(name, decl)
	}
	return name
}

// leaf closes the element as a text (usually) or empty production.
func (g *gen) leaf(name string, decl aig.AttrDecl) {
	scalars := scalarMembers(decl)
	if len(scalars) == 0 || g.coin(0.12) {
		g.d.DefineEmpty(name)
		g.a.Rules[name] = &aig.Rule{Elem: name}
		return
	}
	m := scalars[g.r.Intn(len(scalars))]
	g.d.DefineText(name)
	r := &aig.Rule{Elem: name, TextSrc: aig.InhOf(name, m.Name)}
	if g.coin(0.5) {
		g.a.Syn[name] = aig.Attr(aig.MemberDecl{Name: "s0", Kind: aig.Scalar, ValueKind: m.ValueKind})
		r.Syn = aig.Syn1("s0", aig.ScalarOf{Src: aig.InhOf(name, m.Name)})
	}
	g.a.Rules[name] = r
}

// synInfo describes one already-generated child's synthesized attribute,
// for wiring sibling dependencies and parent Syn rules.
type synInfo struct {
	child string
	m     aig.MemberDecl
}

// synMembers lists the syn members of an element as (child, member) pairs.
func (g *gen) synMembers(child string) []synInfo {
	var out []synInfo
	for _, m := range g.a.Syn[child].Members {
		out = append(out, synInfo{child: child, m: m})
	}
	return out
}

func (g *gen) seq(name string, decl aig.AttrDecl, depth int) {
	nslots := 1 + g.r.Intn(g.cfg.MaxChildren)
	if nslots < 2 && g.coin(0.7) {
		nslots = 2
	}
	rule := &aig.Rule{Elem: name, Inh: make(map[string]*aig.InhRule)}
	var children []string
	var avail []synInfo // syn members of earlier children

	for i := 0; i < nslots; i++ {
		var child string
		switch {
		case g.coin(0.40):
			// Field: a text leaf echoing one parent scalar.
			src := g.pickScalar(decl)
			childDecl := aig.Attr(aig.MemberDecl{Name: "m0", Kind: aig.Scalar, ValueKind: src.ValueKind})
			child = g.element(childDecl, 0)
			rule.Inh[child] = &aig.InhRule{Child: child,
				Copies: []aig.CopyAssign{aig.Copy("m0", aig.InhOf(name, src.Name))}}
		case g.cfg.Recursion && !g.recursive && depth >= 2 && g.coin(0.30):
			child = g.recComponent()
			src := g.pickStringScalar(decl)
			rule.Inh[child] = &aig.InhRule{Child: child,
				Copies: []aig.CopyAssign{aig.Copy("m0", aig.InhOf(name, src.Name))}}
		default:
			childDecl, ir := g.subChildRule(name, decl, avail)
			child = g.element(childDecl, depth-1)
			ir.Child = child
			rule.Inh[child] = ir
		}
		children = append(children, child)
		avail = append(avail, g.synMembers(child)...)
	}

	// Occasionally repeat a text field child: same rule, two occurrences.
	if g.coin(0.15) {
		for _, c := range children {
			if p, ok := g.d.Production(c); ok && p.Kind == dtd.ProdText {
				children = append(children, c)
				break
			}
		}
	}
	g.d.DefineSeq(name, children...)

	// Syn(name) = g(Syn(children)) — parent Inh is out of scope here.
	if len(avail) > 0 && g.coin(0.6) {
		pick := avail[g.r.Intn(len(avail))]
		src := aig.SynOf(pick.child, pick.m.Name)
		if pick.m.Kind == aig.Scalar {
			if g.coin(0.4) {
				g.a.Syn[name] = aig.Attr(aig.MemberDecl{Name: "s0", Kind: aig.Scalar, ValueKind: pick.m.ValueKind})
				rule.Syn = aig.Syn1("s0", aig.ScalarOf{Src: src})
			} else {
				g.a.Syn[name] = aig.Attr(aig.MemberDecl{Name: "sS", Kind: aig.Set,
					Fields: relstore.Schema{{Name: "v0", Kind: pick.m.ValueKind}}})
				rule.Syn = aig.Syn1("sS", aig.SingletonOf{Srcs: []aig.SourceRef{src}})
			}
		} else {
			fields := append(relstore.Schema(nil), pick.m.Fields...)
			var expr aig.SynExpr = aig.CollectionOf{Src: src}
			// Union with a second compatible source when one exists.
			if g.coin(0.35) {
				for _, other := range avail {
					if other.m.Kind != aig.Scalar && len(other.m.Fields) == len(fields) &&
						other.m.Fields[0].Kind == fields[0].Kind &&
						!(other.child == pick.child && other.m.Name == pick.m.Name) {
						expr = aig.UnionOf{Terms: []aig.SynExpr{expr, aig.CollectionOf{Src: aig.SynOf(other.child, other.m.Name)}}}
						break
					}
				}
			}
			g.a.Syn[name] = aig.Attr(aig.MemberDecl{Name: "sS", Kind: aig.Set, Fields: fields})
			rule.Syn = aig.Syn1("sS", expr)
		}
	}
	g.a.Rules[name] = rule
}

// subChildRule builds the inherited declaration and rule for a nested
// (non-leaf) sequence child: copied scalars, and optionally a set member
// fed by a query, a parent collection, or an earlier sibling's Syn.
func (g *gen) subChildRule(parent string, decl aig.AttrDecl, avail []synInfo) (aig.AttrDecl, *aig.InhRule) {
	var members []aig.MemberDecl
	ir := &aig.InhRule{}

	strSrc := g.pickStringScalar(decl)
	members = append(members, aig.StringMember("m0"))
	ir.Copies = append(ir.Copies, aig.Copy("m0", aig.InhOf(parent, strSrc.Name)))

	if g.coin(0.45) {
		src := g.pickScalar(decl)
		members = append(members, aig.MemberDecl{Name: "m1", Kind: aig.Scalar, ValueKind: src.ValueKind})
		ir.Copies = append(ir.Copies, aig.Copy("m1", aig.InhOf(parent, src.Name)))
	}

	if g.coin(0.45) {
		members = append(members, aig.MemberDecl{Name: "S", Kind: aig.Set,
			Fields: relstore.Schema{{Name: "v0", Kind: relstore.KindString}}})
		// Feed S: sibling Syn set, parent set, or a fresh query.
		var sibling *synInfo
		for i := range avail {
			if avail[i].m.Kind == aig.Set && len(avail[i].m.Fields) == 1 &&
				avail[i].m.Fields[0].Kind == relstore.KindString {
				sibling = &avail[i]
				break
			}
		}
		parentSets := stringSets(decl)
		switch {
		case sibling != nil && g.coin(0.4):
			ir.Copies = append(ir.Copies, aig.Copy("S", aig.SynOf(sibling.child, sibling.m.Name)))
		case len(parentSets) > 0 && g.coin(0.4):
			ir.Copies = append(ir.Copies, aig.Copy("S", aig.InhOf(parent, parentSets[0].Name)))
		default:
			q := g.collectionQuery(decl)
			ir.Query = q
			ir.QueryParams = aig.ParamMap("v", aig.InhOf(parent, ""))
			ir.TargetCollection = "S"
		}
	}
	return aig.Attr(members...), ir
}

// collectionQuery builds a query producing one string column aliased v0,
// keyed on a parent scalar; sometimes a cross-source join.
func (g *gen) collectionQuery(decl aig.AttrDecl) *sqlmini.Query {
	pm := g.pickScalar(decl)
	distinct := ""
	if g.coin(0.3) {
		distinct = "distinct "
	}
	if g.coin(0.3) && len(g.dbs) > 1 {
		dbA, ta := g.newTable(relstore.Schema{
			{Name: "k", Kind: pm.ValueKind},
			{Name: "j", Kind: relstore.KindString},
		})
		dbB, tb := g.newTable(relstore.Schema{
			{Name: "j", Kind: relstore.KindString},
			{Name: "c0", Kind: relstore.KindString},
		})
		return sqlmini.MustParse(fmt.Sprintf(
			"select %sb.c0 as v0 from %s:%s a, %s:%s b where a.j = b.j and a.k = $v.%s",
			distinct, dbA, ta, dbB, tb, pm.Name))
	}
	db, t := g.newTable(relstore.Schema{
		{Name: "k", Kind: pm.ValueKind},
		{Name: "c0", Kind: relstore.KindString},
	})
	return sqlmini.MustParse(fmt.Sprintf(
		"select %st.c0 as v0 from %s:%s t where t.k = $v.%s", distinct, db, t, pm.Name))
}

func (g *gen) star(name string, decl aig.AttrDecl, depth int) {
	ir := &aig.InhRule{}
	var childDecl aig.AttrDecl

	if sets := stringSets(decl); len(sets) > 0 && g.coin(0.35) {
		// Collection-copy star: each row of the copied set spawns a child.
		childDecl = aig.Attr(aig.StringMember("m0"))
		ir.Copies = []aig.CopyAssign{aig.Copy("m0", aig.InhOf(name, sets[0].Name))}
	} else {
		childDecl, ir = g.starQueryRule(name, decl)
	}

	child := g.element(childDecl, depth-1)
	ir.Child = child
	rule := &aig.Rule{Elem: name, Inh: map[string]*aig.InhRule{child: ir}}
	g.d.DefineStar(name, child)

	if childSyn := g.synMembers(child); len(childSyn) > 0 && g.coin(0.5) {
		pick := childSyn[g.r.Intn(len(childSyn))]
		var fields relstore.Schema
		if pick.m.Kind == aig.Scalar {
			fields = relstore.Schema{{Name: "v0", Kind: pick.m.ValueKind}}
		} else {
			fields = append(relstore.Schema(nil), pick.m.Fields...)
		}
		g.a.Syn[name] = aig.Attr(aig.MemberDecl{Name: "sS", Kind: aig.Set, Fields: fields})
		rule.Syn = aig.Syn1("sS", aig.CollectChildren{Child: child, Member: pick.m.Name})
	}
	g.a.Rules[name] = rule
}

// starQueryRule builds a query-driven star rule. The child declares its
// query-bound members first, in select order, so the mediator's
// inherited-tuple sort and the conceptual evaluator's row sort agree;
// copied members (constant across siblings) come after.
func (g *gen) starQueryRule(name string, decl aig.AttrDecl) (aig.AttrDecl, *aig.InhRule) {
	pm := g.pickScalar(decl)
	cols := relstore.Schema{{Name: "c0", Kind: relstore.KindString}}
	members := []aig.MemberDecl{aig.StringMember("m0")}
	sel := "t.c0 as m0"
	if g.coin(0.45) {
		kind := relstore.KindString
		if g.coin(0.5) {
			kind = relstore.KindInt
		}
		cols = append(cols, relstore.Column{Name: "c1", Kind: kind})
		members = append(members, aig.MemberDecl{Name: "m1", Kind: aig.Scalar, ValueKind: kind})
		sel += ", t.c1 as m1"
	}
	cols = append(cols, relstore.Column{Name: "k", Kind: pm.ValueKind})

	ir := &aig.InhRule{QueryParams: aig.ParamMap("v", aig.InhOf(name, ""))}
	where := fmt.Sprintf("t.k = $v.%s", pm.Name)
	if g.coin(0.2) {
		where += fmt.Sprintf(" and t.c0 = '%s'", g.poolString())
	}
	if sets := stringSets(decl); len(sets) > 0 && g.coin(0.35) {
		where += " and t.c0 in $V"
		ir.QueryParams["V"] = aig.InhOf(name, sets[0].Name)
	}
	distinct := ""
	if g.coin(0.3) {
		distinct = "distinct "
	}

	var q *sqlmini.Query
	if g.coin(0.25) && len(g.dbs) > 1 {
		// Cross-source join: t supplies the members, u the join partner.
		dbA, ta := g.newTable(cols.Concat(relstore.Schema{{Name: "j", Kind: relstore.KindString}}))
		dbB, tb := g.newTable(relstore.Schema{{Name: "j", Kind: relstore.KindString}})
		q = sqlmini.MustParse(fmt.Sprintf("select %s%s from %s:%s t, %s:%s u where t.j = u.j and %s",
			distinct, sel, dbA, ta, dbB, tb, where))
	} else {
		db, t := g.newTable(cols)
		q = sqlmini.MustParse(fmt.Sprintf("select %s%s from %s:%s t where %s", distinct, sel, db, t, where))
	}
	ir.Query = q

	if g.coin(0.3) {
		src := g.pickScalar(decl)
		members = append(members, aig.MemberDecl{Name: "mc", Kind: aig.Scalar, ValueKind: src.ValueKind})
		ir.Copies = append(ir.Copies, aig.Copy("mc", aig.InhOf(name, src.Name)))
	}
	return aig.Attr(members...), ir
}

func (g *gen) choice(name string, decl aig.AttrDecl, depth int) {
	n := 2 + g.r.Intn(2)
	// Condition table: one row per pool string, so the lookup on a parent
	// string scalar always returns exactly one row.
	db := g.dbs[g.r.Intn(len(g.dbs))]
	tn := fmt.Sprintf("t%d", g.nTable)
	g.nTable++
	t := relstore.NewTable(tn, relstore.Schema{
		{Name: "k", Kind: relstore.KindString},
		{Name: "pick", Kind: relstore.KindInt},
	})
	for i := 0; i < g.cfg.StringPool; i++ {
		t.MustInsert(relstore.Tuple{
			relstore.String(fmt.Sprintf("v%02d", i)),
			relstore.Int(int64(1 + g.r.Intn(n))),
		})
	}
	db.AddTable(t)

	pm := g.pickStringScalar(decl)
	rule := &aig.Rule{
		Elem: name,
		Cond: sqlmini.MustParse(fmt.Sprintf(
			"select t.pick from %s:%s t where t.k = $v.%s", db.Name(), tn, pm.Name)),
		CondParams: aig.ParamMap("v", aig.InhOf(name, "")),
	}

	var children []string
	for i := 0; i < n; i++ {
		strSrc := g.pickStringScalar(decl)
		members := []aig.MemberDecl{aig.StringMember("m0")}
		copies := []aig.CopyAssign{aig.Copy("m0", aig.InhOf(name, strSrc.Name))}
		if g.coin(0.35) {
			src := g.pickScalar(decl)
			members = append(members, aig.MemberDecl{Name: "m1", Kind: aig.Scalar, ValueKind: src.ValueKind})
			copies = append(copies, aig.Copy("m1", aig.InhOf(name, src.Name)))
		}
		child := g.element(aig.Attr(members...), depth-1)
		children = append(children, child)
		rule.Branches = append(rule.Branches, aig.Branch{
			Inh: &aig.InhRule{Child: child, Copies: copies},
		})
	}
	g.d.DefineChoice(name, children...)
	g.a.Rules[name] = rule
}

// recComponent generates the instance's single recursive component:
//
//	rec -> (idText, sub)    sub -> rec*
//
// driven by an edge table whose edges only go from lower to higher pool
// indices, so the recursion data is a DAG with chains bounded by the
// pool size.
func (g *gen) recComponent() string {
	db, tn := func() (string, string) {
		db := g.dbs[g.r.Intn(len(g.dbs))]
		name := fmt.Sprintf("t%d", g.nTable)
		g.nTable++
		t := relstore.NewTable(name, relstore.Schema{
			{Name: "src", Kind: relstore.KindString},
			{Name: "dst", Kind: relstore.KindString},
		})
		for i := 0; i < g.cfg.StringPool; i++ {
			for j := i + 1; j < g.cfg.StringPool; j++ {
				if g.coin(0.3) {
					t.MustInsert(relstore.Tuple{
						relstore.String(fmt.Sprintf("v%02d", i)),
						relstore.String(fmt.Sprintf("v%02d", j)),
					})
				}
			}
		}
		db.AddTable(t)
		return db.Name(), name
	}()

	rec, sub, idt := g.freshElem(), g.freshElem(), g.freshElem()
	g.types += 3
	id := aig.Attr(aig.StringMember("m0"))
	g.a.Inh[rec], g.a.Inh[sub], g.a.Inh[idt] = id, id.Clone(), id.Clone()

	g.d.DefineText(idt)
	g.a.Rules[idt] = &aig.Rule{Elem: idt, TextSrc: aig.InhOf(idt, "m0")}

	g.d.DefineSeq(rec, idt, sub)
	g.a.Rules[rec] = &aig.Rule{Elem: rec, Inh: map[string]*aig.InhRule{
		idt: {Child: idt, Copies: []aig.CopyAssign{aig.Copy("m0", aig.InhOf(rec, "m0"))}},
		sub: {Child: sub, Copies: []aig.CopyAssign{aig.Copy("m0", aig.InhOf(rec, "m0"))}},
	}}

	g.d.DefineStar(sub, rec)
	g.a.Rules[sub] = &aig.Rule{Elem: sub, Inh: map[string]*aig.InhRule{
		rec: {
			Child:       rec,
			Query:       sqlmini.MustParse(fmt.Sprintf("select e.dst as m0 from %s:%s e where e.src = $v.m0", db, tn)),
			QueryParams: aig.ParamMap("v", aig.InhOf(sub, "")),
		},
	}}
	g.recursive = true
	return rec
}

// attachConstraints finds keys and inclusions that are structurally
// valid and — except for at most one deliberate violation — hold on the
// instance's evaluated document.
func (g *gen) attachConstraints(inst *Instance) error {
	if g.cfg.Constraints == 0 {
		return nil
	}
	records := g.recordTypes()
	if len(records) == 0 {
		return nil
	}

	// Evaluate the constraint-free document once to test candidates.
	plain := inst.AIG.Clone()
	plain.Constraints = nil
	plainU, err := specialize.Unfold(plain, inst.UnfoldDepth)
	if err != nil {
		return fmt.Errorf("randaig: seed %d: unfold: %v", inst.Seed, err)
	}
	doc, err := plainU.Eval(inst.Env(), inst.RootInh)
	if err != nil {
		return fmt.Errorf("randaig: seed %d: base evaluation failed: %v", inst.Seed, err)
	}

	var kept, violated []xconstraint.Constraint
	seen := make(map[string]bool)
	for i := 0; i < 3*g.cfg.Constraints+4 && len(kept) < g.cfg.Constraints; i++ {
		c, ok := g.candidateConstraint(records)
		if !ok || seen[c.String()] {
			continue
		}
		seen[c.String()] = true
		if c.ValidateAgainst(g.d) != nil {
			continue
		}
		if len(c.Check(doc)) == 0 {
			kept = append(kept, c)
		} else {
			violated = append(violated, c)
		}
	}
	if g.cfg.AllowViolation && len(violated) > 0 && g.coin(0.4) {
		kept = append(kept, violated[0])
	}

	// Keep only constraints the guard compiler accepts.
	var final []xconstraint.Constraint
	for _, c := range kept {
		probe := inst.AIG.Clone()
		probe.Constraints = []xconstraint.Constraint{c}
		if _, err := specialize.CompileConstraints(probe); err == nil {
			final = append(final, c)
		}
	}
	inst.AIG.Constraints = final
	return nil
}

// record describes a sequence type with string text fields usable in
// constraints.
type record struct {
	elem   string
	fields []string
}

// recordTypes finds sequence types whose children include string text
// elements occurring exactly once — the legal constraint field shape.
func (g *gen) recordTypes() []record {
	reach := g.d.Reachable()
	var out []record
	for _, elem := range g.d.Types() {
		if !reach[elem] {
			continue
		}
		p, _ := g.d.Production(elem)
		if p.Kind != dtd.ProdSeq {
			continue
		}
		count := make(map[string]int)
		for _, c := range p.Children {
			count[c]++
		}
		var fields []string
		for c, n := range count {
			if n != 1 {
				continue
			}
			cp, _ := g.d.Production(c)
			if cp.Kind != dtd.ProdText {
				continue
			}
			r := g.a.Rules[c]
			if r == nil || r.TextSrc == (aig.SourceRef{}) {
				continue
			}
			if m, ok := g.a.Inh[c].Member(r.TextSrc.Member); ok && m.ValueKind == relstore.KindString {
				fields = append(fields, c)
			}
		}
		if len(fields) > 0 {
			sortStrings(fields)
			out = append(out, record{elem: elem, fields: fields})
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// candidateConstraint draws one random structurally plausible key or
// inclusion over the record types.
func (g *gen) candidateConstraint(records []record) (xconstraint.Constraint, bool) {
	tgt := records[g.r.Intn(len(records))]
	ctx, ok := g.pickContext(tgt.elem)
	if !ok || ctx == tgt.elem {
		// A context equal to the target would make the constraint range
		// over each target's own subtree; keep contexts strictly above.
		return xconstraint.Constraint{}, false
	}
	if len(records) < 2 || g.coin(0.6) {
		// Key on 1..2 fields.
		nf := 1
		if len(tgt.fields) > 1 && g.coin(0.4) {
			nf = 2
		}
		fields := append([]string(nil), tgt.fields...)
		g.r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		return xconstraint.Constraint{
			Kind: xconstraint.Key, Context: ctx,
			Target: tgt.elem, TargetFields: fields[:nf],
		}, true
	}
	src := records[g.r.Intn(len(records))]
	if src.elem == tgt.elem || src.elem == ctx {
		return xconstraint.Constraint{}, false
	}
	// Context must reach both sides.
	if !g.reachesFrom(ctx, src.elem) {
		return xconstraint.Constraint{}, false
	}
	return xconstraint.Constraint{
		Kind: xconstraint.Inclusion, Context: ctx,
		Source: src.elem, SourceFields: []string{src.fields[g.r.Intn(len(src.fields))]},
		Target: tgt.elem, TargetFields: []string{tgt.fields[g.r.Intn(len(tgt.fields))]},
	}, true
}

// pickContext selects a context type from which target is reachable:
// usually the root, sometimes a random intermediate ancestor type.
func (g *gen) pickContext(target string) (string, bool) {
	if g.coin(0.6) {
		if g.reachesFrom(g.d.Root, target) {
			return g.d.Root, true
		}
		return "", false
	}
	reach := g.d.Reachable()
	var cands []string
	for _, t := range g.d.Types() {
		if reach[t] && g.reachesFrom(t, target) {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return cands[g.r.Intn(len(cands))], true
}

// reachesFrom reports whether target is reachable from start in the DTD
// (start counts as reaching itself).
func (g *gen) reachesFrom(start, target string) bool {
	if start == target {
		return true
	}
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		p, ok := g.d.Production(t)
		if !ok {
			continue
		}
		for _, c := range p.Children {
			if c == target {
				return true
			}
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return false
}
