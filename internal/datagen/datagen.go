// Package datagen generates the experimental datasets of §6 (Table 1):
// the four hospital databases at small/medium/large scale, produced by a
// deterministic seeded generator standing in for the ToXgene pipeline the
// paper used. Cardinalities match Table 1 exactly; the procedure
// hierarchy is a layered random DAG whose k-way self-join cardinalities
// grow in the same regime the paper reports for the Large dataset (3-way
// ≈ 4055, 4-way ≈ 6837).
package datagen

import (
	"fmt"
	"math/rand"

	"github.com/aigrepro/aig/internal/relstore"
)

// Size describes one dataset scale.
type Size struct {
	Name      string
	Patient   int
	VisitInfo int
	Cover     int
	Billing   int
	Treatment int
	Procedure int

	// Generation shape parameters (not part of Table 1).
	Policies int
	Dates    int
	Levels   int
}

// Tiny is a smoke-test scale, not part of Table 1: small enough that
// race-instrumented end-to-end runs (internal/proctest's TestTrace)
// evaluate a view in milliseconds, while still populating every table
// and a multi-level procedure DAG.
var Tiny = Size{
	Name: "tiny", Patient: 60, VisitInfo: 240, Cover: 30,
	Billing: 20, Treatment: 20, Procedure: 24,
	Policies: 4, Dates: 10, Levels: 4,
}

// The three dataset scales of Table 1.
var (
	Small = Size{
		Name: "small", Patient: 2500, VisitInfo: 11371, Cover: 2224,
		Billing: 175, Treatment: 175, Procedure: 441,
		Policies: 16, Dates: 30, Levels: 10,
	}
	Medium = Size{
		Name: "medium", Patient: 3300, VisitInfo: 14887, Cover: 3762,
		Billing: 250, Treatment: 250, Procedure: 718,
		Policies: 22, Dates: 30, Levels: 10,
	}
	Large = Size{
		Name: "large", Patient: 5000, VisitInfo: 22496, Cover: 8996,
		Billing: 350, Treatment: 350, Procedure: 923,
		Policies: 34, Dates: 30, Levels: 10,
	}
)

// Sizes lists the Table 1 scales in increasing order. Tiny is kept out
// so benchmarks and cardinality checks that reproduce the paper's table
// iterate exactly the published scales.
var Sizes = []Size{Small, Medium, Large}

// SizeByName returns the named scale, including the off-table "tiny".
func SizeByName(name string) (Size, error) {
	if name == Tiny.Name {
		return Tiny, nil
	}
	for _, s := range Sizes {
		if s.Name == name {
			return s, nil
		}
	}
	return Size{}, fmt.Errorf("datagen: unknown dataset size %q (want tiny, small, medium or large)", name)
}

// Date returns the i-th report date string (0-based).
func Date(i int) string { return fmt.Sprintf("d%03d", i+1) }

// Generate builds the four databases DB1..DB4 at the given scale,
// deterministically for a seed.
func Generate(size Size, seed int64) *relstore.Catalog {
	r := rand.New(rand.NewSource(seed))
	cat := relstore.NewCatalog()

	trID := func(i int) string { return fmt.Sprintf("t%04d", i) }
	ssn := func(i int) string { return fmt.Sprintf("s%06d", i) }
	policy := func(i int) string { return fmt.Sprintf("pol%02d", i) }

	// DB4: treatment and the procedure hierarchy.
	db4 := relstore.NewDatabase("DB4")
	treatment := db4.CreateTable("treatment", relstore.MustSchema("trId:string", "tname:string"))
	names := []string{"xray", "mri", "cast", "suture", "scan", "biopsy", "dialysis", "transfusion"}
	for i := 0; i < size.Treatment; i++ {
		treatment.MustInsert(relstore.Tuple{
			relstore.String(trID(i)),
			relstore.String(fmt.Sprintf("%s-%d", names[i%len(names)], i)),
		})
	}
	procedure := db4.CreateTable("procedure", relstore.MustSchema("trId1:string", "trId2:string"))
	for _, e := range procedureEdges(r, size) {
		procedure.MustInsert(relstore.Tuple{relstore.String(trID(e[0])), relstore.String(trID(e[1]))})
	}
	cat.Add(db4)

	// DB1: patients and visits.
	db1 := relstore.NewDatabase("DB1")
	patient := db1.CreateTable("patient", relstore.MustSchema("SSN:string", "pname:string", "policy:string"))
	for i := 0; i < size.Patient; i++ {
		patient.MustInsert(relstore.Tuple{
			relstore.String(ssn(i)),
			relstore.String(fmt.Sprintf("patient-%d", i)),
			relstore.String(policy(r.Intn(size.Policies))),
		})
	}
	visit := db1.CreateTable("visitInfo", relstore.MustSchema("SSN:string", "trId:string", "date:string"))
	seenVisit := make(map[[3]int]bool, size.VisitInfo)
	for visit.Len() < size.VisitInfo {
		key := [3]int{r.Intn(size.Patient), r.Intn(size.Treatment), r.Intn(size.Dates)}
		if seenVisit[key] {
			continue
		}
		seenVisit[key] = true
		visit.MustInsert(relstore.Tuple{
			relstore.String(ssn(key[0])),
			relstore.String(trID(key[1])),
			relstore.String(Date(key[2])),
		})
	}
	cat.Add(db1)

	// DB2: insurance coverage — exactly size.Cover distinct pairs.
	db2 := relstore.NewDatabase("DB2")
	cover := db2.CreateTable("cover", relstore.MustSchema("policy:string", "trId:string"))
	seenCover := make(map[[2]int]bool, size.Cover)
	for cover.Len() < size.Cover {
		key := [2]int{r.Intn(size.Policies), r.Intn(size.Treatment)}
		if seenCover[key] {
			continue
		}
		seenCover[key] = true
		cover.MustInsert(relstore.Tuple{relstore.String(policy(key[0])), relstore.String(trID(key[1]))})
	}
	cat.Add(db2)

	// DB3: billing — one price per treatment (trId is the key).
	db3 := relstore.NewDatabase("DB3")
	billing := db3.CreateTable("billing", relstore.MustSchema("trId:string", "price:int"))
	for i := 0; i < size.Billing; i++ {
		billing.MustInsert(relstore.Tuple{
			relstore.String(trID(i)),
			relstore.Int(int64(20 + r.Intn(980))),
		})
	}
	cat.Add(db3)

	return cat
}

// procedureEdges builds the layered random DAG of the treatment
// hierarchy: treatments are spread over size.Levels levels, every edge
// goes from level l to level l+1 (acyclic by construction), and each
// level splits into "branchy" nodes — which carry all outgoing edges,
// some to the next level's branchy nodes, most to terminals — and
// terminal nodes with no sub-treatments. Branch fanout is higher at the
// first levels (x0) than deeper (xl); the constants are calibrated so the
// Large dataset's 3- and 4-way self-join cardinalities land on the values
// the paper reports (≈4055 and ≈6837): this generator yields 3906 and
// 7217.
func procedureEdges(r *rand.Rand, size Size) [][2]int {
	const (
		branchFrac = 0.25
		x0         = 3.8 // branch-to-branch fanout at levels 0-1
		xl         = 1.85
	)
	levels := size.Levels
	byLevel := make([][]int, levels)
	for i := 0; i < size.Treatment; i++ {
		byLevel[i%levels] = append(byLevel[i%levels], i)
	}
	nB := int(branchFrac * float64(len(byLevel[0])))
	if nB < 2 {
		nB = 2
	}
	branchy := make([][]int, levels)
	terminal := make([][]int, levels)
	for l, lv := range byLevel {
		b := nB
		if b > len(lv) {
			b = len(lv)
		}
		branchy[l] = lv[:b]
		terminal[l] = lv[b:]
	}

	quota := size.Procedure / (levels - 1)
	extra := size.Procedure - quota*(levels-1)
	seen := make(map[[2]int]bool, size.Procedure)
	var edges [][2]int
	addN := func(n int, parents, children []int) {
		added, tries := 0, 0
		for added < n && tries < 100000 {
			tries++
			key := [2]int{parents[r.Intn(len(parents))], children[r.Intn(len(children))]}
			if seen[key] {
				continue
			}
			seen[key] = true
			edges = append(edges, key)
			added++
		}
	}
	for l := 0; l < levels-1; l++ {
		q := quota
		if l < extra {
			q++
		}
		x := xl
		if l < 2 {
			x = x0
		}
		bb := int(x*float64(nB) + 0.5)
		if max := len(branchy[l]) * len(branchy[l+1]); bb > max {
			bb = max
		}
		if bb > q {
			bb = q
		}
		addN(bb, branchy[l], branchy[l+1])
		if len(terminal[l+1]) > 0 {
			addN(q-bb, branchy[l], terminal[l+1])
		} else {
			addN(q-bb, branchy[l], branchy[l+1])
		}
	}
	return edges
}

// SelfJoinCard computes the number of paths of length k in the procedure
// hierarchy — the cardinality of the k-way self join the paper quotes to
// characterize unfolding growth.
func SelfJoinCard(procedure *relstore.Table, k int) int {
	children := make(map[string][]string)
	for _, row := range procedure.Rows() {
		children[row[0].AsString()] = append(children[row[0].AsString()], row[1].AsString())
	}
	// paths[v] = number of paths of the current length ending anywhere,
	// starting from v; iterate lengths.
	count := make(map[string]int, len(children))
	for v := range children {
		count[v] = 1
	}
	// count_k(v) = number of length-k paths starting at v.
	cur := make(map[string]int)
	for v, cs := range children {
		cur[v] = len(cs)
		_ = cs
	}
	if k == 1 {
		return procedure.Len()
	}
	for step := 2; step <= k; step++ {
		next := make(map[string]int, len(children))
		for v, cs := range children {
			total := 0
			for _, c := range cs {
				total += cur[c]
			}
			next[v] = total
		}
		cur = next
	}
	total := 0
	for _, n := range cur {
		total += n
	}
	return total
}
