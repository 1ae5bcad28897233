package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// mixedBatch builds one upload spanning a cell owned by every shard.
func mixedBatch(t *testing.T, tc *testCluster) ([]dataset.Reading, []string) {
	t.Helper()
	locs := tc.locations(t, 47)
	var mixed []dataset.Reading
	var owners []string
	for owner, loc := range locs {
		mixed = append(mixed, synthAt(20, 47, 7, loc)...)
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	return mixed, owners
}

// shardHeaderList normalizes the comma-joined X-Waldo-Shard value for
// order-independent comparison.
func shardHeaderList(resp *http.Response) []string {
	ids := strings.Split(resp.Header.Get(ShardHeader), ",")
	sort.Strings(ids)
	return ids
}

// TestSplitUploadResponseHeaders: a split upload's response names every
// leg's shard in X-Waldo-Shard (comma-joined) and carries the cluster
// version, on both the JSON and binary ingest paths — so a client that
// hit the slow path can tell which shards its readings landed on.
func TestSplitUploadResponseHeaders(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	mixed, owners := mixedBatch(t, tc)

	resp := mustPost(t, tc.gwTS.URL+"/v1/readings", uploadBody(t, mixed))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("mixed-cell JSON upload = %s", resp.Status)
	}
	if got := shardHeaderList(resp); !equalStrings(got, owners) {
		t.Errorf("JSON split %s = %v, want legs %v", ShardHeader, got, owners)
	}
	if v := resp.Header.Get(ClusterVersionHeader); v != tc.gw.ConfigVersion() {
		t.Errorf("JSON split cluster version = %q, want %q", v, tc.gw.ConfigVersion())
	}

	resp = postFrame(t, tc.gwTS.URL, frameOf(t, mixed), 0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("mixed-cell batch upload = %s", resp.Status)
	}
	if got := shardHeaderList(resp); !equalStrings(got, owners) {
		t.Errorf("binary split %s = %v, want legs %v", ShardHeader, got, owners)
	}
	if v := resp.Header.Get(ClusterVersionHeader); v != tc.gw.ConfigVersion() {
		t.Errorf("binary split cluster version = %q, want %q", v, tc.gw.ConfigVersion())
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tracesOut mirrors the /debug/traces JSON envelope.
type tracesOut struct {
	Count  int                   `json:"count"`
	Traces []telemetry.TraceData `json:"traces"`
}

func fetchTrace(t *testing.T, baseURL, traceID string) tracesOut {
	t.Helper()
	var out tracesOut
	body := mustGetBody(t, baseURL+"/debug/traces?trace="+traceID, http.StatusOK)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v\n%s", err, body)
	}
	return out
}

func spanNames(tr telemetry.TraceData) map[string]int {
	names := map[string]int{}
	for _, s := range tr.Spans {
		names[s.Name]++
	}
	return names
}

// TestTraceCrossesGatewayShardWAL is the PR's acceptance path: one
// upload through a 3-shard WAL-backed cluster produces, under the single
// trace ID returned in the response header, a gateway trace with the
// route root and its fan-out leg, and a shard trace whose spans include
// the upload screen and the WAL append — each readable from that
// process's own /debug/traces.
func TestTraceCrossesGatewayShardWAL(t *testing.T) {
	dir := t.TempDir()
	tc := &testCluster{
		nodes:   map[string]*Node{},
		nodeTS:  map[string]*httptest.Server{},
		cellDeg: DefaultCellDeg,
	}
	var specs []ShardSpec
	for _, id := range []string{"s0", "s1", "s2"} {
		n, err := OpenNode(NodeConfig{
			ID: id,
			DB: dbserver.Config{
				Constructor: core.ConstructorConfig{Classifier: core.KindNB},
				DataDir:     dir + "/" + id,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		tc.nodes[id] = n
		tc.nodeTS[id] = ts
		specs = append(specs, ShardSpec{ID: id, URLs: []string{ts.URL}})
		t.Cleanup(func() {
			ts.Close()
			n.Close()
		})
	}
	gw, err := NewGateway(GatewayConfig{Shards: specs, Ring: RingConfig{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	tc.gw = gw
	tc.gwTS = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		tc.gwTS.Close()
		gw.Close()
	})

	// Single-cell upload: exactly one shard serves it.
	locs := tc.locations(t, 47)
	var owner string
	for owner = range locs {
		break
	}
	resp := mustPost(t, tc.gwTS.URL+"/v1/readings", uploadBody(t, synthAt(30, 47, 3, locs[owner])))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	if got := resp.Header.Get(ShardHeader); got != owner {
		t.Fatalf("%s = %q, want owner %q", ShardHeader, got, owner)
	}
	sc, ok := telemetry.ParseTraceHeader(resp.Header.Get(telemetry.TraceHeader))
	if !ok {
		t.Fatalf("response %s = %q, not parseable", telemetry.TraceHeader, resp.Header.Get(telemetry.TraceHeader))
	}
	traceID := sc.Trace.String()

	// Gateway recorder: route root plus the fan-out leg naming the shard.
	gwOut := fetchTrace(t, tc.gwTS.URL, traceID)
	if gwOut.Count != 1 {
		t.Fatalf("gateway retained %d traces for %s, want 1", gwOut.Count, traceID)
	}
	gwNames := spanNames(gwOut.Traces[0])
	if gwNames["/v1/readings"] == 0 || gwNames["/v1/readings/leg"] == 0 {
		t.Fatalf("gateway trace spans = %v, want route root and leg", gwNames)
	}
	legShard := ""
	for _, s := range gwOut.Traces[0].Spans {
		if s.Name == "/v1/readings/leg" {
			for _, a := range s.Attrs {
				if a.Key == "shard" {
					legShard = a.Value
				}
			}
		}
	}
	if legShard != owner {
		t.Fatalf("leg span shard attr = %q, want %q", legShard, owner)
	}

	// Owning shard's recorder: same trace ID, with the WAL append
	// recorded under the route root. (A "screen" span would appear too if
	// Screening were configured; these nodes run unscreened.)
	shOut := fetchTrace(t, tc.nodeTS[owner].URL, traceID)
	if shOut.Count != 1 {
		t.Fatalf("shard %s retained %d traces for %s, want 1", owner, shOut.Count, traceID)
	}
	// The shard sees the gateway's transcoded frame, not the client's JSON.
	shNames := spanNames(shOut.Traces[0])
	for _, want := range []string{"/v1/upload/batch", "wal/append"} {
		if shNames[want] == 0 {
			t.Fatalf("shard trace spans = %v, missing %q", shNames, want)
		}
	}
	if got := tc.nodes[owner].DB.Metrics().Counter("waldo_dbserver_batch_uploads_total", "").Value(); got != 1 {
		t.Errorf("owning shard's batch_uploads_total = %d after one JSON upload via the gateway, want 1", got)
	}
	var rootSpanID, walParent string
	for _, s := range shOut.Traces[0].Spans {
		switch s.Name {
		case "/v1/upload/batch":
			rootSpanID = s.SpanID
		case "wal/append":
			walParent = s.ParentID
		}
	}
	if rootSpanID == "" || walParent != rootSpanID {
		t.Fatalf("wal/append parent = %q, want shard root %q", walParent, rootSpanID)
	}

	// The non-owning shards never saw the request.
	for id, ts := range tc.nodeTS {
		if id == owner {
			continue
		}
		if out := fetchTrace(t, ts.URL, traceID); out.Count != 0 {
			t.Errorf("shard %s unexpectedly retained trace %s", id, traceID)
		}
	}
}
