package adminhttp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

func synthReadings(n int) []dataset.Reading {
	rng := rand.New(rand.NewSource(1))
	out := make([]dataset.Reading, 0, n)
	for i := range n {
		loc := rfenv.MetroCenter.Offset(rng.Float64()*360, rng.Float64()*10000)
		rss := -100.0
		if loc.Lon > rfenv.MetroCenter.Lon {
			rss = -70
		}
		out = append(out, dataset.Reading{
			Seq: i, Loc: loc, Channel: 47, Sensor: sensor.KindRTLSDR,
			Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
		})
	}
	return out
}

// TestShutdownWakesWatchersThenDrainsThenClosesTheLog is SIGTERM on a
// durable waldo-server with eight watchers parked and one upload half
// sent: the watchers are answered 503 at once, the upload is finished,
// acknowledged and journaled during the drain, and only then does the
// WAL close — all well inside a second, with a nil error (exit 0).
func TestShutdownWakesWatchersThenDrainsThenClosesTheLog(t *testing.T) {
	dir := t.TempDir()
	cfg := dbserver.Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}, DataDir: dir}
	db, err := dbserver.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const bootstrap = 600
	if err := db.Bootstrap(synthReadings(bootstrap)); err != nil {
		t.Fatal(err)
	}
	srv, err := Start("127.0.0.1:0", db.Handler(), db.BeginShutdown)
	if err != nil {
		t.Fatal(err)
	}
	sigterm, deliver := context.WithCancel(context.Background())
	defer deliver()
	served := make(chan error, 1)
	go func() { served <- srv.serveUntil(sigterm, db.Close) }()

	const watchers = 8
	statuses := make(chan string, watchers)
	for range watchers {
		go func() {
			resp, err := (&http.Client{Transport: &http.Transport{}}).Get(srv.URL + "/v1/model/watch?channel=47&sensor=1&version=1")
			if err != nil {
				statuses <- "error: " + err.Error()
				return
			}
			resp.Body.Close()
			statuses <- resp.Status
		}()
	}
	active := db.Metrics().Gauge("waldo_dbserver_watch_active", "")
	for deadline := time.Now().Add(5 * time.Second); active.Value() != watchers; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v watchers parked, want %d", active.Value(), watchers)
		}
	}

	// An upload whose body is still on the wire when the signal lands.
	upload := `{"ci_span_db":0.4,"readings":[{"seq":9000,"lat":33.7490,"lon":-84.3880,"channel":47,"sensor":1,"rss_dbm":-70,"cft_db":-81.3,"aft_db":-83}]}`
	c, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "POST /v1/readings HTTP/1.1\r\nHost: waldo.test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(upload), upload[:40])
	time.Sleep(50 * time.Millisecond) // the handler is in its body read

	start := time.Now()
	deliver()
	for i := range watchers {
		select {
		case got := <-statuses:
			if got != "503 Service Unavailable" {
				t.Errorf("a parked watcher got %q at shutdown, want 503", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher %d still parked %v after the signal", i, time.Since(start))
		}
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) with an upload still in flight", err)
	default:
	}
	io.WriteString(c, upload[40:])
	reply := make([]byte, 12)
	if _, err := io.ReadFull(c, reply); err != nil || string(reply) != "HTTP/1.1 204" {
		t.Fatalf("the upload in flight at the signal was answered %q (%v), want 204", reply, err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v, want nil (exit status 0)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("shutdown took %v with %d watchers parked, want < 1 s", d, watchers)
	}
	if got := db.Metrics().Counter("waldo_dbserver_watch_total", "", "outcome", "shutdown").Value(); got != watchers {
		t.Errorf("watch_total{outcome=shutdown} = %d, want %d", got, watchers)
	}

	reopened, err := dbserver.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.StoreSize(47, sensor.KindRTLSDR); got != bootstrap+1 {
		t.Errorf("reopened store holds %d readings, want %d: the upload acknowledged during the drain is gone", got, bootstrap+1)
	}
}

// TestCloseWakesParkedPolls is Close as an in-process caller makes it
// with a long-poll parked: the wake given to Start answers the poll, so
// Close returns at once with a nil error instead of waiting out
// shutdownGrace and reporting context.DeadlineExceeded.
func TestCloseWakesParkedPolls(t *testing.T) {
	parked, woken := make(chan struct{}), make(chan struct{})
	var wakes atomic.Int32
	srv, err := Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(parked)
		<-woken
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	}), func() {
		if wakes.Add(1) == 1 {
			close(woken)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan string, 1)
	go func() {
		resp, err := (&http.Client{Transport: &http.Transport{}}).Get(srv.URL + "/v1/grid")
		if err != nil {
			status <- "error: " + err.Error()
			return
		}
		resp.Body.Close()
		status <- resp.Status
	}()
	<-parked

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("Close = %v with a poll parked, want nil", err)
	}
	if d := time.Since(start); d > shutdownGrace/10 {
		t.Errorf("Close took %v with a poll parked, want well inside the %v grace", d, shutdownGrace)
	}
	if n := wakes.Load(); n != 1 {
		t.Errorf("Close ran the wake %d times, want once", n)
	}
	if got := <-status; got != "503 Service Unavailable" {
		t.Errorf("the parked poll got %q at Close, want 503", got)
	}
}
