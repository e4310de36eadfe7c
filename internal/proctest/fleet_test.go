//go:build integration

package proctest_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/proctest"
)

// Each replica's service-time floor: floorSlots view requests at a time
// hold a slot for floorHold before they reach it, which caps one replica
// near floorSlots/floorHold = 100 req/s whatever the host's CPU count. On
// a host with fewer cores than the fleet, four replicas buy no parallel
// compute, so without the floor the test would measure the scheduler; with
// it, it measures what the router is for — spreading the keyspace over
// independent capacity — and its numbers say nothing about evaluation
// speed.
const (
	floorSlots = 4
	floorHold  = 40 * time.Millisecond
)

// TestFleetScaling drives the same warm read load through aigrouter
// fronting one replica and then four, each behind its floor, while an
// origin write stream (50 writes/s at the origin's sidecar) reaches every
// replica by delta subscription. The fleet must deliver at least three
// times the single replica's throughput.
func TestFleetScaling(t *testing.T) {
	const (
		minScale = 3.0
		workers  = 40
		duration = 10 * time.Second
		rate     = 50 // origin writes per second
	)
	aigd := proctest.Build(t, "aigd", false)
	aigrouter := proctest.Build(t, "aigrouter", false)
	aigsource := proctest.Build(t, "aigsource", false)
	data, db1 := tinyData(t)
	srcAddr, srcHTTP := proctest.FreeAddr(t), proctest.FreeAddr(t)

	start(t, originReady(srcAddr, srcHTTP), aigsource, "-name", "DB1", "-data", db1, "-listen", srcAddr, "-http", srcHTTP)
	var fronts []string
	for i := 0; i < 4; i++ {
		addr := proctest.FreeAddr(t)
		start(t, proctest.HTTPReady("http://"+addr), aigd, "-addr", addr,
			"-view", "report="+specFile(t), "-data", data, "-source", "DB1="+srcAddr,
			"-subscribe", "-refresh-interval", "200ms", "-max-concurrent", fmt.Sprint(floorSlots))
		fronts = append(fronts, floorProxy(t, "http://"+addr))
	}
	router := func(replicas []string) string {
		addr := proctest.FreeAddr(t)
		start(t, proctest.HTTPReady("http://"+addr), aigrouter, "-addr", addr,
			"-replica", strings.Join(replicas, ","), "-health-interval", "200ms")
		return "http://" + addr
	}
	router1, router4 := router(fronts[:1]), router(fronts)

	urls := func(router string) []string {
		var out []string
		for d := 1; d <= 10; d++ {
			out = append(out, fmt.Sprintf("%s/views/report?date=d%03d", router, d))
		}
		return out
	}
	// Warm every replica's shard before the writes start. Under the write
	// stream a loaded replica cannot cache a fresh evaluation (the stamp
	// recheck sees a write that landed while the request queued), but an
	// entry cached in the quiet window stays warm: each delta fires the
	// mirror's change signal, which wakes the refresher, the judge proves the written row (a visit on the
	// never-served date d999) affects no served document, and the entry
	// is restamped.
	proctest.Load{URLs: urls(router1), Workers: 8, Requests: 100}.Run()
	proctest.Load{URLs: urls(router4), Workers: 8, Requests: 400}.Run()

	writes := "http://" + srcHTTP + "/mutate?source=DB1&table=visitInfo&values=s999998,t999999,d999"
	measure := func(what, router string) float64 {
		ctx, cancel := context.WithCancel(context.Background())
		written := make(chan [2]int)
		go func() {
			ok, failed := proctest.Write(ctx, writes, rate)
			written <- [2]int{ok, failed}
		}()
		r := proctest.Load{URLs: urls(router), Workers: workers, Duration: duration}.Run()
		cancel()
		w := <-written
		checkLoad(t, what, r)
		t.Logf("%s: %d origin writes acknowledged, %d failed", what, w[0], w[1])
		return r.Throughput()
	}
	single := measure("one replica", router1)
	fleet := measure("four replicas", router4)
	scale := fleet / single
	t.Logf("one replica %.1f req/s, four replicas %.1f req/s: %.2fx (floor %d slots x %v per replica)",
		single, fleet, scale, floorSlots, floorHold)
	if scale < minScale {
		t.Fatalf("fleet scale %.2fx, want >= %.0fx", scale, minScale)
	}
}

// floorProxy fronts the replica at target with its service-time floor and
// returns the proxy's base URL. /healthz and /metrics pass unheld.
func floorProxy(t *testing.T, target string) string {
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = &http.Transport{MaxIdleConnsPerHost: 64}
	slots := make(chan struct{}, floorSlots)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/views/") {
			select {
			case slots <- struct{}{}:
			case <-r.Context().Done():
				return
			}
			time.Sleep(floorHold)
			<-slots
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}
