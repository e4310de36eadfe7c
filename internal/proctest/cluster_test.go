//go:build integration

package proctest_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/proctest"
)

// TestCluster runs the fleet race-built: one TCP origin aigsource with its
// HTTP sidecar, two aigd replicas mirroring it by delta subscription, and
// aigrouter in front of both.
//
//  1. A replica is SIGKILLed under steady load through the router, and the
//     clients see no failed request: health probes and retry on the next
//     replica hide the death.
//  2. A write lands at the origin while that replica is down. Restarted, it
//     catches up over the subscription stream (its document shows the
//     write, and a catch-up is metered) and serves warm hits again; the
//     router sees it healthy.
func TestCluster(t *testing.T) {
	const probeName = "zzz-cluster-probe"
	aigd := proctest.Build(t, "aigd", true)
	aigrouter := proctest.Build(t, "aigrouter", true)
	aigsource := proctest.Build(t, "aigsource", true)
	data, db1 := tinyData(t)
	srcAddr, srcHTTP := proctest.FreeAddr(t), proctest.FreeAddr(t)
	rep1, rep2, routerAddr := proctest.FreeAddr(t), proctest.FreeAddr(t), proctest.FreeAddr(t)
	router := "http://" + routerAddr

	src := start(t, originReady(srcAddr, srcHTTP), aigsource, "-name", "DB1", "-data", db1, "-listen", srcAddr, "-http", srcHTTP)
	replica := func(addr string) *proctest.Proc {
		return start(t, proctest.HTTPReady("http://"+addr), aigd, "-addr", addr,
			"-view", "report="+specFile(t), "-data", data, "-source", "DB1="+srcAddr,
			"-subscribe", "-refresh-interval", "150ms")
	}
	r1, r2 := replica(rep1), replica(rep2)
	rt := start(t, proctest.HTTPReady(router), aigrouter, "-addr", routerAddr,
		"-replica", "http://"+rep1+",http://"+rep2, "-health-interval", "100ms")

	// Phase 1: kill a replica mid-load; the clients must not notice.
	var urls []string
	for _, date := range []string{"d001", "d002", "d003", "d004"} {
		urls = append(urls, router+"/views/report?date="+date)
	}
	loaded := make(chan proctest.LoadResult)
	go func() { loaded <- proctest.Load{URLs: urls, Workers: 6, Duration: 5 * time.Second}.Run() }()
	time.Sleep(1500 * time.Millisecond)
	r2.Kill()
	checkLoad(t, "load through the router across the kill", <-loaded)
	get(t, router+"/healthz")

	// Phase 2: write at the origin while the replica is down, then restart it.
	post(t, "http://"+srcHTTP+"/mutate?table=patient&op=insert&values=s999999,"+probeName+",p000001")
	post(t, "http://"+srcHTTP+"/mutate?table=visitInfo&op=insert&values=s999999,t000001,d001")
	r2 = replica(rep2)
	base2 := "http://" + rep2
	// It subscribed from scratch: its catch-up already holds the write.
	if r := get(t, base2+"/views/report?date=d001"); !contains(r.Body, probeName) {
		t.Fatal("the restarted replica served a document without the write made while it was down")
	}
	m, err := proctest.Scrape(base2)
	if err != nil {
		t.Fatal(err)
	}
	catchups := 0.0
	for series, v := range m {
		if strings.HasPrefix(series, "aig_mirror_catchup_") {
			catchups += v
		}
	}
	if catchups < 1 {
		t.Fatalf("the restarted replica metered %v catch-ups, want >= 1", catchups)
	}
	if r := get(t, base2+"/views/report?date=d001"); r.Cache() != "hit" {
		t.Fatalf("restarted replica's repeat request: cache %q, want hit", r.Cache())
	}
	waitFor(t, "the router to see the restarted replica healthy", 500*time.Millisecond, func() bool {
		var reps []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		}
		if err := json.Unmarshal(get(t, router+"/replicas").Body, &reps); err != nil {
			t.Fatalf("/replicas: %v", err)
		}
		for _, r := range reps {
			if r.URL == base2 && r.Healthy {
				return true
			}
		}
		return false
	})
	for _, p := range []*proctest.Proc{rt, r2, r1, src} {
		stop(t, p)
	}
}

// originReady is ready once the origin source accepts TCP clients and its
// HTTP sidecar answers /healthz.
func originReady(addr, httpAddr string) proctest.Ready {
	tcp, sidecar := proctest.TCPReady(addr), proctest.HTTPReady("http://"+httpAddr)
	return func() bool { return tcp() && sidecar() }
}
