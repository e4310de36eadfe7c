// Package proctest runs this repository's commands as child processes for
// end-to-end tests. It builds a command from the tree (optionally with the
// race detector), picks free loopback addresses, starts a child and waits
// until it answers, stops it with SIGTERM (a non-zero exit is an error) or
// kills it, and drives HTTP traffic at it: single requests, a /metrics
// scrape, a closed loop of readers and an open-loop /mutate writer.
//
// The deployment tests beside it (build tag integration) use it to run
// the mediator, its sources and the router as separate processes:
//
//	go test -tags integration -count=1 ./internal/proctest
package proctest

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/obs"
)

// Build compiles the command cmd/name of this module into t's temporary
// directory, with the race detector when race is set, and returns the
// binary's path.
func Build(t testing.TB, name string, race bool) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	args := []string{"build", "-o", bin}
	if race {
		args = append(args, "-race")
	}
	out, err := exec.Command("go", append(args, "github.com/aigrepro/aig/cmd/"+name)...).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// FreeAddr returns a loopback host:port that nothing listened on a moment
// ago. A restarted child can be given the same address again.
func FreeAddr(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// Ready reports whether a starting child accepts work yet.
type Ready func() bool

// HTTPReady is ready once GET base/healthz answers 200.
func HTTPReady(base string) Ready {
	return func() bool {
		r, err := Do(http.MethodGet, base+"/healthz")
		return err == nil && r.Status == http.StatusOK
	}
}

// TCPReady is ready once a TCP dial to addr succeeds.
func TCPReady(addr string) Ready {
	return func() bool {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
		}
		return err == nil
	}
}

// Proc is one running child process.
type Proc struct {
	cmd  *exec.Cmd
	log  string        // file holding the child's stdout and stderr
	done chan struct{} // closed once cmd.Wait has returned
	err  error         // cmd.Wait's result, read after done is closed
}

// Start runs bin with args and returns once ready reports true. A child
// that exits first fails Start at once, and one not ready within a minute
// is killed; either error carries the child's output. A child still
// running when the test ends is killed.
func Start(t testing.TB, ready Ready, bin string, args ...string) (*Proc, error) {
	p := &Proc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	log, err := os.CreateTemp(t.TempDir(), filepath.Base(bin)+"-*.log")
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	p.log, p.cmd.Stdout, p.cmd.Stderr = log.Name(), log, log
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(p.Kill)
	for deadline := time.Now().Add(time.Minute); !ready(); {
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before it was ready: %v\n%s", bin, p.err, p.Output())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.Kill()
			return nil, fmt.Errorf("%s not ready after a minute\n%s", bin, p.Output())
		}
	}
	return p, nil
}

// Pid is the child's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Output is what the child has written to stdout and stderr so far.
func (p *Proc) Output() string {
	b, _ := os.ReadFile(p.log) // a missing log reads as no output
	return string(b)
}

// Stop sends SIGTERM and waits for the child to exit. A non-zero exit — a
// failed drain, or a race report from a race-built child — is an error
// carrying the child's output; so is a child still running 20 s after
// the signal, which is then killed.
func (p *Proc) Stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM) // fails only if the child already exited
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s exit: %v\n%s", p.cmd.Path, p.err, p.Output())
		}
		return nil
	case <-time.After(20 * time.Second):
		p.Kill()
		return fmt.Errorf("%s still running 20s after SIGTERM\n%s", p.cmd.Path, p.Output())
	}
}

// Kill sends SIGKILL and returns once the child is gone.
func (p *Proc) Kill() {
	p.cmd.Process.Kill() // fails only if the child already exited
	<-p.done
}

// Response is one answered HTTP request.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// Cache is the response's X-Aig-Cache state.
func (r Response) Cache() string { return r.Header.Get("X-Aig-Cache") }

var client = &http.Client{Timeout: 30 * time.Second}

// Do sends one request with an empty body and reads the whole answer.
func Do(method, url string) (Response, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return Response{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return Response{Status: resp.StatusCode, Header: resp.Header, Body: body}, err
}

// Scrape reads base/metrics into series → value. A series is the metric
// name with its labels as printed (aig_serve_ttfb_seconds_bucket{le="0.1"});
// an exemplar after the value is dropped.
func Scrape(base string) (map[string]float64, error) {
	r, err := Do(http.MethodGet, base+"/metrics")
	if err == nil && r.Status != http.StatusOK {
		err = fmt.Errorf("%s/metrics: status %d", base, r.Status)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.Body), "\n") {
		line, _, _ = strings.Cut(line, " # ")
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// Load is a closed loop: each of Workers callers sends its next GET only
// after the previous one completed, the callers together walking URLs
// round-robin, until Requests have been sent or Duration has passed,
// whichever is set and comes first.
type Load struct {
	URLs     []string
	Workers  int
	Requests int
	Duration time.Duration
	// Traceparent stamps every request with a fresh W3C Traceparent.
	Traceparent bool
}

// LoadResult counts what a Load saw.
type LoadResult struct {
	Requests int
	Statuses map[int]int // requests by status; 0 counts transport failures
	Hits     int         // answers with X-Aig-Cache: hit
	Elapsed  time.Duration
}

// Throughput is requests per second of the run.
func (r LoadResult) Throughput() float64 { return float64(r.Requests) / r.Elapsed.Seconds() }

// AllOK reports whether every request was answered 200.
func (r LoadResult) AllOK() bool { return r.Requests > 0 && r.Statuses[http.StatusOK] == r.Requests }

// Run drives the loop and returns once every worker has stopped.
func (l Load) Run() LoadResult {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: l.Workers}, Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	res := LoadResult{Statuses: make(map[int]int)}
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < l.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				n := res.Requests
				if (l.Requests > 0 && n >= l.Requests) || (l.Duration > 0 && time.Since(start) >= l.Duration) {
					mu.Unlock()
					return
				}
				res.Requests++
				mu.Unlock()
				status, hit := l.get(hc, l.URLs[n%len(l.URLs)])
				mu.Lock()
				res.Statuses[status]++
				if hit {
					res.Hits++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// get sends one request and returns its status (0 on a transport
// failure) and whether it was a cache hit.
func (l Load) get(hc *http.Client, u string) (int, bool) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, false
	}
	if l.Traceparent {
		req.Header.Set("Traceparent", obs.FormatTraceparent(obs.NewTraceID()))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, false
	}
	return resp.StatusCode, resp.Header.Get("X-Aig-Cache") == "hit"
}

// Write is an open-loop writer: it posts url&op=insert and url&op=delete
// in turn, rate times a second, until ctx is done, so the row url names
// keeps appearing and disappearing. It returns the writes answered 200
// and the rest.
func Write(ctx context.Context, url string, rate float64) (ok, failed int) {
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return ok, failed
		case <-tick.C:
		}
		op := [2]string{"insert", "delete"}[i%2]
		if r, err := Do(http.MethodPost, url+"&op="+op); err == nil && r.Status == http.StatusOK {
			ok++
		} else {
			failed++
		}
	}
}
