package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
)

// Load shape of every network workload: closed loop — each caller waits
// for its reply before sending the next request — with one goroutine per
// two cores, each on its own keep-alive connection, all inside the
// benchmark process. Workers take ops from the shared list in order.

// warmupOps is how many ops of each list run untimed before the window.
const warmupOps = 500

// loadgen drives one op list against one base URL.
type loadgen struct {
	base    string
	ops     []op
	sites   []site // query_mixed only
	workers []*worker

	lat    []time.Duration // per op; valid where ok
	began  []time.Duration // per op: start, since the run call began
	ok     []bool
	acked  atomic.Int64 // readings in 2xx uploads since the loadgen was made
	fresh  samples      // freshness probe samples
	mu     sync.Mutex   // guards fresh, errs, notes
	errs   []string     // first few failures, for the report
	checks modelChecks

	// etags holds the validator each site's clients last saw, shared so
	// conditional fetches behave like a fleet polling one model.
	etags []atomic.Pointer[string]
}

// modelChecks tallies what query_mixed's correctness checks need.
type modelChecks struct {
	undecodable  int // model bodies that failed core.DecodeModel
	backwards    int // model versions that went backwards on one connection
	staleFresh   int // freshness probes whose watch returned a version <= the parked one
	modelBodies  int
	freshSamples int
}

func (c *modelChecks) add(d modelChecks) {
	c.undecodable += d.undecodable
	c.backwards += d.backwards
	c.staleFresh += d.staleFresh
	c.modelBodies += d.modelBodies
	c.freshSamples += d.freshSamples
}

// worker is one closed-loop client: a keep-alive connection for the op
// list and a side connection used only while a freshness probe parks a
// watch.
type worker struct {
	main, side *http.Client
	lastSeen   []int // per site: last model version seen on this connection
}

// clientCount is how many closed-loop clients drive a network workload:
// one per two cores, so the clients and the requests they have in flight
// never want more cores than the machine has. With one client per core
// the load generator, the SUT's handlers and its background work (WAL
// flusher, snapshots, GC) were runnable on more threads than cores, and
// the numbers measured the scheduler: runs spread 4-13 % against 3-8 %
// (README.md).
func clientCount() int { return max(1, runtime.NumCPU()/2) }

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func newLoadgen(base string, ops []op, sites []site) *loadgen {
	g := &loadgen{
		base: base, ops: ops, sites: sites,
		lat: make([]time.Duration, len(ops)), began: make([]time.Duration, len(ops)), ok: make([]bool, len(ops)),
		etags: make([]atomic.Pointer[string], len(sites)),
	}
	for i := 0; i < clientCount(); i++ {
		g.workers = append(g.workers, &worker{main: oneConnClient(), side: oneConnClient(), lastSeen: make([]int, len(sites))})
	}
	return g
}

func (g *loadgen) close() {
	for _, w := range g.workers {
		w.main.CloseIdleConnections()
		w.side.CloseIdleConnections()
	}
}

func (g *loadgen) fail(i int, err error) {
	g.mu.Lock()
	if len(g.errs) < 5 {
		g.errs = append(g.errs, fmt.Sprintf("op %d (%s): %v", i, g.ops[i].path, err))
	}
	g.mu.Unlock()
}

// run executes ops[from:to] closed-loop. When win is set, the worker
// that takes the first op of each segment marks the window there, and
// the end of the list closes it.
func (g *loadgen) run(from, to int, win *window) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				if win != nil && boundary(i, from, to-from) {
					win.mark(i)
				}
				if win != nil && refDue(i, from, to-from) {
					win.sampleRef()
				}
				t0 := time.Now()
				g.began[i] = t0.Sub(start)
				err := g.do(w, i)
				if err != nil {
					g.fail(i, err)
					continue
				}
				g.lat[i], g.ok[i] = time.Since(t0), true
			}
		}(w)
	}
	wg.Wait()
	if win != nil {
		win.mark(to)
	}
}

// send issues one request on c and returns the status, headers and body.
func (g *loadgen) send(c *http.Client, method, path string, body []byte, hdr map[string]string) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

var (
	hdrFrame = map[string]string{"Content-Type": "application/octet-stream",
		dbserver.CISpanHeader: strconv.FormatFloat(uploadCISpanDB, 'g', -1, 64)}
	hdrJSON = map[string]string{"Content-Type": "application/json"}
)

// do runs op i on worker w. Any reply other than the expected 2xx/304,
// and any transport error, is a failed op.
func (g *loadgen) do(w *worker, i int) error {
	o := &g.ops[i]
	switch o.kind {
	case opUploadJSON, opUploadFrame, opUploadSplit:
		hdr := hdrFrame
		if o.kind == opUploadJSON {
			hdr = hdrJSON
		}
		resp, data, err := g.send(w.main, http.MethodPost, o.path, o.body, hdr)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("upload: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		g.acked.Add(int64(o.readings))
		return nil
	case opModelCond, opModelFull:
		_, err := g.fetchModel(w, w.main, o.path, o.site, o.kind == opModelCond)
		return err
	case opFreshnessSlot:
		if (i+1)%freshEvery != 0 {
			_, err := g.fetchModel(w, w.main, o.path, o.site, true)
			return err
		}
		return g.freshnessProbe(w, o)
	case opAvailOne, opAvailAll:
		resp, data, err := g.send(w.main, http.MethodGet, o.path, nil, nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("availability: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		return nil
	case opRoute:
		resp, data, err := g.send(w.main, http.MethodPost, o.path, o.body, hdrJSON)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("route: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// fetchModel GETs a model (or parks a watch: path decides), decodes a
// 200 body with core.DecodeModel, and returns the version the server
// reported. Conditional fetches send the validator the fleet last saw.
func (g *loadgen) fetchModel(w *worker, c *http.Client, path string, si int, conditional bool) (int, error) {
	var hdr map[string]string
	if conditional {
		if etag := g.etags[si].Load(); etag != nil {
			hdr = map[string]string{"If-None-Match": *etag}
		}
	}
	resp, data, err := g.send(c, http.MethodGet, path, nil, hdr)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		return 0, fmt.Errorf("model: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	version, err := strconv.Atoi(resp.Header.Get("X-Waldo-Model-Version"))
	if err != nil {
		return 0, fmt.Errorf("model: bad version header %q", resp.Header.Get("X-Waldo-Model-Version"))
	}
	if resp.StatusCode == http.StatusOK {
		_, derr := core.DecodeModel(bytes.NewReader(data))
		g.mu.Lock()
		g.checks.modelBodies++
		if derr != nil {
			g.checks.undecodable++
		}
		g.mu.Unlock()
		if derr != nil {
			return 0, fmt.Errorf("model: decode: %w", derr)
		}
		etag := resp.Header.Get("ETag")
		g.etags[si].Store(&etag)
	}
	// Requests on one connection are sequential, so the versions it
	// sees may never decrease.
	if c == w.main {
		if version < w.lastSeen[si] {
			g.mu.Lock()
			g.checks.backwards++
			g.mu.Unlock()
		}
		w.lastSeen[si] = version
	}
	return version, nil
}

// watchHeadStart lets the side connection's long-poll reach the shard
// and park before the retrain is sent; it is outside the timed interval.
const watchHeadStart = 2 * time.Millisecond

// freshnessProbe measures model freshness as a watching WSD sees it:
// park GET /v1/model/watch on the side connection, POST /v1/retrain for
// the same store, and time from sending the retrain until the watcher
// holds the decoded new model.
func (g *loadgen) freshnessProbe(w *worker, o *op) error {
	s := &g.sites[o.site]
	v0, err := g.fetchModel(w, w.main, o.path, o.site, true)
	if err != nil {
		return err
	}
	type watched struct {
		version int
		at      time.Time
		err     error
	}
	done := make(chan watched, 1)
	go func() {
		v, err := g.fetchModel(w, w.side, fmt.Sprintf("/v1/model/watch?%s&version=%d", s.query, v0), o.site, false)
		done <- watched{v, time.Now(), err}
	}()
	time.Sleep(watchHeadStart)
	t0 := time.Now()
	resp, data, err := g.send(w.main, http.MethodPost, "/v1/retrain?"+s.query, nil, nil)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("retrain: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	res := <-done
	if err != nil {
		return err
	}
	if res.err != nil {
		return fmt.Errorf("watch: %w", res.err)
	}
	g.mu.Lock()
	g.fresh = append(g.fresh, res.at.Sub(t0))
	g.checks.freshSamples++
	if res.version <= v0 {
		g.checks.staleFresh++
	}
	g.mu.Unlock()
	return nil
}

// classSamples splits the successful ops of [from, to) by class. A
// freshness probe is not an op-latency sample: it is reported on its own.
func (g *loadgen) classSamples(from, to int) (all samples, byClass [numClasses]samples, failed int) {
	for i := from; i < to; i++ {
		if !g.ok[i] {
			failed++
			continue
		}
		if g.ops[i].kind == opFreshnessSlot && (i+1)%freshEvery == 0 {
			continue
		}
		all = append(all, g.lat[i])
		c := g.ops[i].kind.class()
		byClass[c] = append(byClass[c], g.lat[i])
	}
	return all, byClass, failed
}
