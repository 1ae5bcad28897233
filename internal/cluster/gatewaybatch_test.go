package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
)

// frameOf encodes readings as one binary batch frame.
func frameOf(t testing.TB, rs []dataset.Reading) []byte {
	t.Helper()
	frame, err := core.EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// postFrame ships a batch frame with a CI-span header.
func postFrame(t testing.TB, url string, frame []byte, ciSpan float64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/upload/batch", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if ciSpan != 0 {
		req.Header.Set(dbserver.CISpanHeader, strconv.FormatFloat(ciSpan, 'g', -1, 64))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGatewayBatchForwardByteIdentical pins the single-owner fast path:
// the shard must receive exactly the bytes the client sent — same frame,
// same CRC, CI span header intact — because re-framing would break the
// end-to-end integrity story for the common case.
func TestGatewayBatchForwardByteIdentical(t *testing.T) {
	var gotBody atomic.Pointer[[]byte]
	var gotSpan atomic.Pointer[string]
	shard := httptest.NewServer(gridParked(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/upload/batch" {
			t.Errorf("shard saw path %q", r.URL.Path)
		}
		data, _ := io.ReadAll(r.Body)
		gotBody.Store(&data)
		span := r.Header.Get(dbserver.CISpanHeader)
		gotSpan.Store(&span)
		w.WriteHeader(http.StatusNoContent)
	})))
	defer shard.Close()
	gw, err := NewGateway(GatewayConfig{
		Shards: []ShardSpec{{ID: "only", URLs: []string{shard.URL}}},
		Ring:   RingConfig{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	frame := frameOf(t, synthAt(40, 47, 3, cellCenter(rfenv.MetroCenter)))
	resp := postFrame(t, ts.URL, frame, 1.5)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("batch upload = %s", resp.Status)
	}
	if got := gotBody.Load(); got == nil || !bytes.Equal(*got, frame) {
		t.Fatalf("shard body differs from client frame (got %d bytes, want %d)", lenOf(gotBody.Load()), len(frame))
	}
	if got := gotSpan.Load(); got == nil || *got != "1.5" {
		t.Fatalf("CI span header = %v, want 1.5", gotSpan.Load())
	}
}

func lenOf(p *[]byte) int {
	if p == nil {
		return 0
	}
	return len(*p)
}

// TestGatewayBatchSplitsMixedCells mirrors the JSON split test on the
// binary path: a frame spanning cells owned by different shards lands
// the right readings on the right shards, each leg a valid frame (the
// real dbserver nodes CRC-check it).
func TestGatewayBatchSplitsMixedCells(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	locs := tc.locations(t, 47)
	want := map[string]int{}
	var mixed []dataset.Reading
	share := 20
	for owner, loc := range locs {
		mixed = append(mixed, synthAt(share, 47, 7, loc)...)
		want[owner] = share
		share += 10
	}
	resp := postFrame(t, tc.gwTS.URL, frameOf(t, mixed), 0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("mixed-cell batch upload = %s", resp.Status)
	}
	for id, ts := range tc.nodeTS {
		var stats []dbserver.StatsJSON
		if err := json.Unmarshal(mustGetBody(t, ts.URL+"/v1/stats", http.StatusOK), &stats); err != nil {
			t.Fatal(err)
		}
		got := 0
		if len(stats) == 1 {
			got = stats[0].Readings
		}
		if got != want[id] {
			t.Errorf("shard %s holds %d readings, want %d", id, got, want[id])
		}
	}
	if v := tc.gw.uploadSplits.Value(); v < 1 {
		t.Errorf("upload split counter = %v, want ≥ 1", v)
	}
}

// TestGatewayBatchRejectsBadFrames: framing violations die at the
// gateway with 400 and never cost a shard round-trip.
func TestGatewayBatchRejectsBadFrames(t *testing.T) {
	var shardHits atomic.Int64
	shard := httptest.NewServer(gridParked(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		shardHits.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})))
	defer shard.Close()
	gw, err := NewGateway(GatewayConfig{
		Shards: []ShardSpec{{ID: "only", URLs: []string{shard.URL}}},
		Ring:   RingConfig{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	good := frameOf(t, synthAt(8, 47, 5, cellCenter(rfenv.MetroCenter)))
	corrupt := append([]byte(nil), good...)
	corrupt[9] ^= 0x40
	cases := map[string][]byte{
		"corrupt":  corrupt,
		"trailing": append(append([]byte(nil), good...), 0xAA),
		"torn":     good[:len(good)-5],
		"header":   {1, 0},
		"empty":    {0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, frame := range cases {
		resp := postFrame(t, ts.URL, frame, 0)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s frame = %s, want 400", name, resp.Status)
		}
	}
	if n := shardHits.Load(); n != 0 {
		t.Errorf("bad frames reached the shard %d times", n)
	}
}

// TestGatewayWatchProxy: a model watch parked through the gateway is
// woken by a retrain routed through the gateway — push delivery works
// end to end across the cluster tier, and the park is not killed by the
// gateway's ordinary proxy timeout budget.
func TestGatewayWatchProxy(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	locs := tc.locations(t, 47)
	var owner string
	for id := range locs {
		owner = id
		break
	}
	loc := locs[owner]
	hint := fmt.Sprintf("&lat=%s&lon=%s",
		strconv.FormatFloat(loc.Lat, 'f', -1, 64), strconv.FormatFloat(loc.Lon, 'f', -1, 64))

	resp := postFrame(t, tc.gwTS.URL, frameOf(t, synthAt(80, 47, 9, loc)), 0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("seed upload = %s", resp.Status)
	}

	type watchResult struct {
		status  int
		version string
		shard   string
		err     error
	}
	done := make(chan watchResult, 1)
	go func() {
		resp, err := http.Get(tc.gwTS.URL + "/v1/model/watch?channel=47&sensor=1&version=0" + hint)
		if err != nil {
			done <- watchResult{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		done <- watchResult{
			status:  resp.StatusCode,
			version: resp.Header.Get("X-Waldo-Model-Version"),
			shard:   resp.Header.Get("X-Waldo-Shard"),
		}
	}()
	// Give the watch time to park on the shard, then retrain through the
	// gateway with the same location hint.
	time.Sleep(50 * time.Millisecond)
	retrain := mustPost(t, tc.gwTS.URL+"/v1/retrain?channel=47&sensor=1"+hint, nil)
	retrain.Body.Close()
	if retrain.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %s", retrain.Status)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.status != http.StatusOK || res.version != "1" {
			t.Fatalf("watch = %d version %q, want 200 version \"1\"", res.status, res.version)
		}
		if res.shard != owner {
			t.Errorf("watch proxied to shard %q, want %q", res.shard, owner)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never woke after retrain")
	}
}
