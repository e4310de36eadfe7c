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

// BenchmarkParamJoin measures the parameter execution paths the
// mediator's rewritten queries rely on, over a 10 k-row table: a
// 500-value set parameter (IN), and a one-row parameter table joined on
// the table's key, whose cost an index probe keeps proportional to the
// one match rather than to the table.
func BenchmarkParamJoin(b *testing.B) {
	cat := benchCatalog(10000)
	var set []relstore.Tuple
	for i := 0; i < 500; i++ {
		set = append(set, relstore.Tuple{relstore.String(fmt.Sprintf("k%06d", i*7))})
	}
	key := relstore.MustSchema("k:string")
	for _, bc := range []struct {
		name, sql string
		params    Params
		want      int
	}{
		{"in-500", `select a from DB:left where k in $V`, Params{"V": {Schema: key, Rows: set}}, 500},
		{"one-row", `select l.a from $v v, DB:left l where l.k = v.k`,
			Params{"v": {Schema: key, Rows: set[1:2]}}, 1},
	} {
		q := MustParse(bc.sql)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Run("out", q, CatalogSchemas{cat}, CatalogData{cat}, CatalogStats{cat}, bc.params, PlanOptions{})
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
