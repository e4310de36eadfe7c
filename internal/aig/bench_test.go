package aig_test

import (
	"fmt"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/relstore"
)

// BenchmarkSetCollection assigns a 20-row collection member, the size of
// a patient's treatment set in the hospital view: the mediator does this
// once per instance for every synthesized set (deduplicated) and every
// collected inherited bag.
func BenchmarkSetCollection(b *testing.B) {
	decl := aig.Attr(aig.SetMember("s", "trId:string"), aig.BagMember("b", "trId:string", "price:int"))
	set := make([]relstore.Tuple, 20)
	bag := make([]relstore.Tuple, 20)
	for i := range set {
		set[i] = relstore.Tuple{relstore.String(fmt.Sprintf("t%04d", i%15))}
		bag[i] = relstore.Tuple{relstore.String(fmt.Sprintf("t%04d", i)), relstore.Int(int64(i))}
	}
	v := aig.NewAttrValue(decl)
	for _, tc := range []struct {
		member string
		rows   []relstore.Tuple
	}{{"s", set}, {"b", bag}} {
		b.Run(map[string]string{"s": "set", "b": "bag"}[tc.member], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.SetCollection(tc.member, tc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
