// Package cmdtest boots a command's own run(args) in-process, on a
// loopback port picked at run time, and stops it with a real SIGTERM.
// It serves the main_test.go of waldo-server and waldo-gateway: what
// those tests check is the binaries' own wiring — flags into config,
// the wake given to adminhttp.Start, the closer given to
// adminhttp.Serve — which every other suite builds by hand.
package cmdtest

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// client holds no connection past its request, so none outlives a
// process's shutdown in the goroutine count.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

// Proc is one run(args) serving in the test process.
type Proc struct {
	// URL is the process's base URL, "http://127.0.0.1:port".
	URL string

	t          testing.TB
	done       chan error
	goroutines int // before run started
}

// Boot starts run(args -addr 127.0.0.1:port) and returns once it
// answers /healthz. It registers for SIGTERM first, so the signal
// [Proc.TermParked] sends can never kill the test process, and counts
// the goroutines that run before it.
func Boot(t testing.TB, run func(args []string) error, args ...string) *Proc {
	t.Helper()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(sigs) })
	for attempt := 0; ; attempt++ {
		p := &Proc{URL: "http://" + freeAddr(t), t: t, done: make(chan error, 1), goroutines: runtime.NumGoroutine()}
		go func() { p.done <- run(append(args, "-addr", strings.TrimPrefix(p.URL, "http://"))) }()
		err := p.awaitServing()
		if err == nil {
			return p
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 2 {
			t.Fatalf("run %q: %v", args, err)
		}
	}
}

// freeAddr picks a loopback address no listener holds now.
func freeAddr(t testing.TB) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// awaitServing polls /healthz until it answers or run returns.
func (p *Proc) awaitServing() error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-p.done:
			return err
		default:
		}
		if resp, err := client.Get(p.URL + "/healthz"); err == nil {
			resp.Body.Close()
			return nil
		}
	}
	return errors.New("never answered /healthz")
}

// Do sends req to the process and returns the response with its body
// read and closed.
func (p *Proc) Do(req *http.Request) (*http.Response, []byte) {
	p.t.Helper()
	resp, err := client.Do(req)
	if err != nil {
		p.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	return resp, body
}

// Get is Do of a GET of p.URL+target.
func (p *Proc) Get(target string) (*http.Response, []byte) {
	p.t.Helper()
	req, err := http.NewRequest(http.MethodGet, p.URL+target, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	return p.Do(req)
}

// Spans returns the spans of trace traceID as the process's own
// /debug/traces retains it; it fails the test unless exactly one trace
// is retained.
func (p *Proc) Spans(traceID string) []telemetry.SpanData {
	p.t.Helper()
	resp, body := p.Get("/debug/traces?trace=" + traceID)
	var out struct {
		Traces []telemetry.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); resp.StatusCode != http.StatusOK || err != nil {
		p.t.Fatalf("/debug/traces = %s (%v):\n%s", resp.Status, err, body)
	}
	if len(out.Traces) != 1 {
		p.t.Fatalf("/debug/traces retained %d traces for %s, want 1", len(out.Traces), traceID)
	}
	return out.Traces[0].Spans
}

// TermParked parks GET p.URL+watch until parked reports it parked, then
// sends the test process SIGTERM, as an operator's kill sends the
// binary. The watch must be answered 503 within 2 s, run must return
// nil, and every goroutine run started must be gone: the closer given
// to Serve, not a deferred one, is what stops the process's own.
func (p *Proc) TermParked(watch string, parked func() bool) {
	p.t.Helper()
	status := make(chan string, 1)
	go func() {
		resp, err := client.Get(p.URL + watch)
		if err != nil {
			status <- "error: " + err.Error()
			return
		}
		resp.Body.Close()
		status <- resp.Status
	}()
	for deadline := time.Now().Add(5 * time.Second); !parked(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			p.t.Fatalf("GET %s never parked", watch)
		}
	}

	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		p.t.Fatal(err)
	}
	start := time.Now()
	if err := self.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatal(err)
	}
	select {
	case got := <-status:
		if got != "503 Service Unavailable" {
			p.t.Errorf("the parked watch got %q at SIGTERM, want 503", got)
		}
	case <-time.After(2 * time.Second):
		p.t.Fatalf("the parked watch was still unanswered %v after SIGTERM", time.Since(start))
	}
	select {
	case err := <-p.done:
		if err != nil {
			p.t.Errorf("run returned %v after SIGTERM, want nil (exit status 0)", err)
		}
	case <-time.After(5 * time.Second):
		p.t.Fatal("run did not return within 5 s of SIGTERM")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > p.goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			p.t.Fatalf("%d goroutines still run after run returned, %d before it started:\n%s",
				runtime.NumGoroutine(), p.goroutines, buf[:runtime.Stack(buf, true)])
		}
	}
}
