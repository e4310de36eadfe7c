package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"syscall"
	"time"
)

// numClients is fixed at two so numbers compare across machines; the
// generator refuses to run on a machine with fewer processors.
const numClients = 2

// Request classes: which distribution a sample belongs to.
const (
	classFull   = iota // full-document read
	classNarrow        // fragment selecting a small part of the document
	classWide          // fragment selecting a part from every patient
	classPoll          // mutate_mix writer polling for its write; not a read sample
)

// request is one GET the generator can send, with every body the
// correctness gate accepts for it.
type request struct {
	date    string
	path    string // fragment path; empty for the full document
	url     string
	noStore bool
	class   int
	legal   [][]byte
}

// viewRequest builds a view request. Its url is path and query only: the
// client adds the daemon's address, which changes with every set-up.
func viewRequest(date, path string, noStore bool, class int) request {
	u := "/view/" + viewName + "?date=" + date
	if path != "" {
		u += "&path=" + url.QueryEscape(path)
	}
	return request{date: date, path: path, url: u, noStore: noStore, class: class}
}

// sample is one completed request.
type sample struct {
	class int
	ttfb  time.Duration // request start → response header read
	total time.Duration // request start → last body byte
	end   time.Duration // completion, since the timed window began
	bytes int
	ok    bool
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	base    string // http://host:port of the daemon
	hc      *http.Client
	buf     []byte
	samples []sample
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// readBody reads r to the end into the client's reusable buffer.
func (c *client) readBody(r io.Reader) ([]byte, error) {
	b := c.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			c.buf = b
			return b, nil
		}
		if err != nil {
			c.buf = b
			return nil, err
		}
	}
}

// get sends one request, checks status and bytes, and records a sample.
// It returns the body (valid until the client's next request) and whether
// the response passed the gate.
func (c *client) get(rq *request, windowStart time.Time) ([]byte, bool) {
	s := sample{class: rq.class}
	start := time.Now()
	body, err := c.do(rq, start, &s)
	now := time.Now()
	s.total, s.end = now.Sub(start), now.Sub(windowStart)
	s.bytes = len(body)
	if err == nil {
		for _, want := range rq.legal {
			if bytes.Equal(body, want) {
				s.ok = true
				break
			}
		}
	}
	c.samples = append(c.samples, s)
	return body, s.ok
}

func (c *client) do(rq *request, start time.Time, s *sample) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+rq.url, nil)
	if err != nil {
		return nil, err
	}
	if rq.noStore {
		req.Header.Set("Cache-Control", "no-store")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s.ttfb = time.Since(start)
	body, err := c.readBody(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, nil
}

// closedLoop sends the requests round-robin, the next only after the
// previous completed, until the deadline.
func (c *client) closedLoop(reqs []request, start, deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		c.get(&reqs[i%len(reqs)], start)
	}
}

// cpuSeconds is the processor time this process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
