package sqlmini

import (
	"fmt"
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

func benchCatalog(rows int) *relstore.Catalog {
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	left := db.CreateTable("left", relstore.MustSchema("k:string", "a:int"))
	right := db.CreateTable("right", relstore.MustSchema("k:string", "b:int"))
	for i := 0; i < rows; i++ {
		k := relstore.String(fmt.Sprintf("k%06d", i))
		left.MustInsert(relstore.Tuple{k, relstore.Int(int64(i))})
		right.MustInsert(relstore.Tuple{k, relstore.Int(int64(i * 2))})
	}
	cat.Add(db)
	return cat
}

// BenchmarkHashJoin measures the executor's equi-join throughput.
func BenchmarkHashJoin(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		cat := benchCatalog(rows)
		q := MustParse(`select l.a, r.b from DB:left l, DB:right r where l.k = r.k and l.a >= 0`)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Run("out", q, CatalogSchemas{cat}, CatalogData{cat}, CatalogStats{cat}, nil, PlanOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() != rows {
					b.Fatalf("join returned %d rows", out.Len())
				}
			}
		})
	}
}

// BenchmarkParse measures the SQL parser on the paper's Q2.
func BenchmarkParse(b *testing.B) {
	const q2 = `select t.trId, t.tname from DB1:visitInfo i, DB2:cover c, DB4:treatment t
		where i.SSN = $v.SSN and i.date = $v.date and t.trId = i.trId
		and c.trId = i.trId and c.policy = $v.policy`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q2); err != nil {
			b.Fatal(err)
		}
	}
}

// paramTables binds $A and $B to two tables of rows rows each, equal on
// (k, n) row for row, and returns the query that joins them on both
// columns: the planner scans one and hashes the other.
func paramTables(rows int) (*Query, Params) {
	schema := relstore.MustSchema("k:string", "n:int", "v:int")
	a, b := Binding{Schema: schema}, Binding{Schema: schema}
	for i := 0; i < rows; i++ {
		k, n := relstore.String(fmt.Sprintf("k%06d", i/3)), relstore.Int(int64(i%3))
		a.Rows = append(a.Rows, relstore.Tuple{k, n, relstore.Int(int64(i))})
		b.Rows = append(b.Rows, relstore.Tuple{k, n, relstore.Int(int64(-i))})
	}
	return MustParse(`select a.v as av, b.v as bv from $A a, $B b where a.k = b.k and a.n = b.n`), Params{"A": a, "B": b}
}

// BenchmarkParamJoin measures the parameter execution paths the
// mediator's rewritten queries rely on, over a 10 k-row table: a
// 500-value set parameter (IN), and a one-row parameter table joined on
// the table's key, whose cost an index probe keeps proportional to the
// one match rather than to the table; and, as a part query joins its
// parent's bindings, two 1,000-row parameter tables joined on two
// columns, the second hashed for the join.
func BenchmarkParamJoin(b *testing.B) {
	cat := benchCatalog(10000)
	var set []relstore.Tuple
	for i := 0; i < 500; i++ {
		set = append(set, relstore.Tuple{relstore.String(fmt.Sprintf("k%06d", i*7))})
	}
	key := relstore.MustSchema("k:string")
	buildQ, buildParams := paramTables(1000)
	for _, bc := range []struct {
		name   string
		q      *Query
		params Params
		want   int
	}{
		{"in-500", MustParse(`select a from DB:left where k in $V`), Params{"V": {Schema: key, Rows: set}}, 500},
		{"one-row", MustParse(`select l.a from $v v, DB:left l where l.k = v.k`),
			Params{"v": {Schema: key, Rows: set[1:2]}}, 1},
		{"build-1000", buildQ, buildParams, 1000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Run("out", bc.q, CatalogSchemas{cat}, CatalogData{cat}, CatalogStats{cat}, bc.params, PlanOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() != bc.want {
					b.Fatalf("%d rows, want %d", out.Len(), bc.want)
				}
			}
		})
	}
}
