package main

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/cmdtest"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/telemetry"
)

func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		name, flag string
		want       []cluster.ShardSpec
		err        string
	}{
		{name: "empty flag", flag: " ", err: "-shards is required"},
		{name: "entry without =", flag: "s0http://a", err: `bad -shards entry "s0http://a"`},
		{name: "empty id", flag: "=http://a", err: `bad -shards entry "=http://a"`},
		{name: "no URLs after trimming", flag: "s0= , /", err: `shard "s0" has no URLs`},
		{name: "trailing slashes trimmed", flag: "s0=http://a/ ,http://b//", want: []cluster.ShardSpec{{ID: "s0", URLs: []string{"http://a", "http://b"}}}},
		{name: "replicas keep their order", flag: "s0=http://p,http://r2,http://r1", want: []cluster.ShardSpec{{ID: "s0", URLs: []string{"http://p", "http://r2", "http://r1"}}}},
		{name: "blank entries skipped", flag: ";s0=http://a;; ;s1=http://b;", want: []cluster.ShardSpec{{ID: "s0", URLs: []string{"http://a"}}, {ID: "s1", URLs: []string{"http://b"}}}},
	} {
		got, err := parseShards(tc.flag)
		switch {
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: parseShards(%q) = %v, %v; want the error %q", tc.name, tc.flag, got, err, tc.err)
		case tc.err == "" && (err != nil || !reflect.DeepEqual(got, tc.want)):
			t.Errorf("%s: parseShards(%q) = %v, %v; want %v", tc.name, tc.flag, got, err, tc.want)
		}
	}
}

// TestRunTracesAnUploadAndStopsOnSIGTERM boots the binary's own run in
// front of three shards, each wired as waldo-server -shard-id wires one.
// Its /healthz shows the -shards on the default ring; one JSON upload is
// traced from the /v1/readings root to a leg span naming the shard that
// answered, in the gateway's own /debug/traces; a watch its client
// abandons is counted a disconnect on that shard; and SIGTERM with a
// watch parked answers it 503 at once and run returns nil, leaving no
// goroutine of its own behind.
func TestRunTracesAnUploadAndStopsOnSIGTERM(t *testing.T) {
	nodes := map[string]*cluster.Node{}
	var shards []string
	for _, id := range []string{"s0", "s1", "s2"} {
		n, err := cluster.OpenNode(cluster.NodeConfig{ID: id, DB: dbserver.Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}}})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := adminhttp.Start("127.0.0.1:0", n.Handler(), n.DB.BeginShutdown)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			n.Close()
		})
		nodes[id] = n
		shards = append(shards, id+"="+srv.URL)
	}
	p := cmdtest.Boot(t, run, "-shards", strings.Join(shards, ";"))
	if resp, body := p.Get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ring_nodes":3,"ring_vnodes":128,`) {
		t.Errorf("/healthz = %s %s, want 200 with the three -shards on the default ring", resp.Status, body)
	}

	const at = "lat=33.7490&lon=-84.3880"
	req, err := http.NewRequest(http.MethodPost, p.URL+"/v1/readings", strings.NewReader(`{"ci_span_db":0.4,"readings":[
		{"seq":0,"lat":33.7490,"lon":-84.3880,"channel":47,"sensor":1,"rss_dbm":-70,"cft_db":-81.3,"aft_db":-83},
		{"seq":1,"lat":33.7491,"lon":-84.3881,"channel":47,"sensor":1,"rss_dbm":-71,"cft_db":-82.3,"aft_db":-84},
		{"seq":2,"lat":33.7492,"lon":-84.3879,"channel":47,"sensor":1,"rss_dbm":-69,"cft_db":-80.3,"aft_db":-82},
		{"seq":3,"lat":33.7489,"lon":-84.3882,"channel":47,"sensor":1,"rss_dbm":-70.5,"cft_db":-81.8,"aft_db":-83.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, body := p.Do(req)
	owner := resp.Header.Get(cluster.ShardHeader)
	if resp.StatusCode != http.StatusNoContent || nodes[owner] == nil {
		t.Fatalf("upload = %s, %s %q: %s", resp.Status, cluster.ShardHeader, owner, body)
	}
	sc, ok := telemetry.ParseTraceHeader(resp.Header.Get(telemetry.TraceHeader))
	if !ok {
		t.Fatalf("response %s = %q", telemetry.TraceHeader, resp.Header.Get(telemetry.TraceHeader))
	}
	root, leg := false, false
	for _, sp := range p.Spans(sc.Trace.String()) {
		root = root || sp.Name == "/v1/readings"
		leg = leg || sp.Name == "/v1/readings/leg" && reflect.DeepEqual(sp.Attrs, []telemetry.Attr{{Key: "shard", Value: owner}})
	}
	if !root || !leg {
		t.Errorf("the upload's trace has the /v1/readings root %v and a leg span naming %s %v, want both", root, owner, leg)
	}

	// The shard holds no model: the gateway forwards the watch, and its
	// client's hang-up must reach the shard.
	const watch = "/v1/model/watch?channel=47&sensor=1&version=99&" + at
	m := nodes[owner].DB.Metrics()
	active := m.Gauge("waldo_dbserver_watch_active", "")
	parked := func() bool { return active.Value() == 1 }
	abandon, cancel := context.WithCancel(context.Background())
	req, err = http.NewRequestWithContext(abandon, http.MethodGet, p.URL+watch, nil)
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); !parked(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the watch never parked on %s", owner)
		}
	}
	cancel()
	<-gone
	disconnects := m.Counter("waldo_dbserver_watch_total", "", "outcome", "disconnect")
	for deadline := time.Now().Add(5 * time.Second); disconnects.Value() != 1 || active.Value() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s counted %d disconnects with %v watches parked after the client hung up, want 1 and 0",
				owner, disconnects.Value(), active.Value())
		}
	}

	p.TermParked(watch, parked)
}
