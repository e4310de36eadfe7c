package serve

import (
	"fmt"
	"net/http"
	"time"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
)

// handleMutate answers POST /mutate (registered only with
// Config.AllowMutate): row-level writes against local sources, the
// write half of mutation demos and warm-cache benchmarks. The query,
// response and status codes are source.ServeMutate's.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	rt, _ := s.beginBackgroundTrace("mutate", nil, time.Now())
	rw := &statusRecorder{ResponseWriter: w}
	rt.rw = rw
	defer rt.finish()

	q := r.URL.Query()
	srcName, table, op := q.Get("source"), q.Get("table"), q.Get("op")
	rt.params = canonicalParams(map[string]string{"source": srcName, "table": table, "op": op})
	rt.root.SetAttr("source", srcName).SetAttr("table", table).SetAttr("op", op)
	res, err := source.ServeMutate(rw, q, s.localDB)
	if err != nil {
		return
	}
	s.m.mutations.Inc()
	rt.root.SetAttr("affected", res.Affected)
}

// localDB resolves a /mutate source: only local sources are writable.
func (s *Server) localDB(name string) (*relstore.Database, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: source is required", relstore.ErrMalformed)
	}
	src, err := s.reg.Get(name)
	if err != nil {
		return nil, err
	}
	local, ok := src.(*source.Local)
	if !ok {
		return nil, fmt.Errorf("source %s is not local; /mutate only writes local sources", name)
	}
	return local.DB(), nil
}
