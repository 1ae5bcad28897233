package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchUpload measures one upload round-trip per iteration against url,
// reusing one keep-alive client so both variants pay identical transport
// setup.
func benchUpload(b *testing.B, httpc *http.Client, url string, body []byte) {
	b.Helper()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := httpc.Post(url, "", bytes.NewReader(body)) // the route names the format
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			b.Fatalf("upload = %s", resp.Status)
		}
	}
}

// benchGateway serves a one-shard gateway in front of a fresh node.
func benchGateway(b *testing.B) *httptest.Server {
	b.Helper()
	_, ts := newTestNode(b, "s0", nil)
	gw, err := NewGateway(GatewayConfig{
		Shards: []ShardSpec{{ID: "s0", URLs: []string{ts.URL}}},
		Ring:   RingConfig{Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	gwTS := httptest.NewServer(gw.Handler())
	b.Cleanup(func() {
		gwTS.Close()
		gw.Close()
	})
	return gwTS
}

// The four upload benchmarks send the same 50-reading batch: in each
// edge format, straight at a single shard node and through a gateway
// (probe → route → forward; for JSON, decode and re-encode as a frame
// first). Direct vs gateway is the routing tier's cost — the acceptance
// bar is < 2× direct per op — and JSON vs frame through the gateway is
// the transcode's. Run them at a fixed iteration count — `go test -run
// '^$' -bench Upload -benchtime 3000x ./internal/cluster/`: per-op cost
// grows with store size, so a time-based -benchtime would compare
// direct and gateway on different stores.
func BenchmarkUploadDirect(b *testing.B) {
	_, ts := newTestNode(b, "direct", nil)
	benchUpload(b, ts.Client(), ts.URL+"/v1/readings", uploadBody(b, synthReadings(50, 47, 1)))
}

func BenchmarkUploadDirectFrame(b *testing.B) {
	_, ts := newTestNode(b, "direct", nil)
	benchUpload(b, ts.Client(), ts.URL+"/v1/upload/batch", frameOf(b, synthReadings(50, 47, 1)))
}

func BenchmarkUploadViaGateway(b *testing.B) {
	gwTS := benchGateway(b)
	benchUpload(b, gwTS.Client(), gwTS.URL+"/v1/readings", uploadBody(b, synthReadings(50, 47, 1)))
}

func BenchmarkUploadViaGatewayFrame(b *testing.B) {
	gwTS := benchGateway(b)
	benchUpload(b, gwTS.Client(), gwTS.URL+"/v1/upload/batch", frameOf(b, synthReadings(50, 47, 1)))
}

// BenchmarkRingOwner prices one routing decision (the per-request cost
// the gateway adds before any I/O).
func BenchmarkRingOwner(b *testing.B) {
	nodes := make([]string, 8)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("shard-%d", i)
	}
	ring, err := NewRing(RingConfig{Seed: 1}, nodes)
	if err != nil {
		b.Fatal(err)
	}
	keys := testKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Owner(keys[i%len(keys)]) == "" {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkFrameEncode prices serializing a 256-reading append frame for
// the replication shipper.
func BenchmarkFrameEncode(b *testing.B) {
	rec := replRecord{kind: frameAppend, ch: 47, sensor: 1, readings: synthReadings(256, 47, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := appendFrame(nil, uint64(i)+1, &rec)
		if len(buf) == 0 {
			b.Fatal("empty frame")
		}
	}
}
