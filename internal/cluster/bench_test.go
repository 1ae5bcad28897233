package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
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
	_, ts := newTestNode(b, "s0", "")
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
// first). Direct vs gateway is the routing tier's cost: a single-owner
// frame is forwarded byte for byte, so the ratio measures the second
// HTTP hop. No test checks it; scripts/layers.sh reports it for frames
// at -cpu 1 and 2 (1.3–1.8× direct per op on 2 vCPUs). JSON vs frame
// through the gateway is the transcode's cost. Run them at a fixed
// iteration count — `go test -run
// '^$' -bench Upload -benchtime 3000x ./internal/cluster/`: per-op cost
// grows with store size, so a time-based -benchtime would compare
// direct and gateway on different stores.
func BenchmarkUploadDirect(b *testing.B) {
	_, ts := newTestNode(b, "direct", "")
	benchUpload(b, ts.Client(), ts.URL+"/v1/readings", uploadBody(b, synthReadings(50, 47, 1)))
}

func BenchmarkUploadDirectFrame(b *testing.B) {
	_, ts := newTestNode(b, "direct", "")
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

// BenchmarkGatewayPlaceQueries prices the gateway's replica-answered
// queries on the in-process 3-shard test cluster: a point's all-channel
// availability, a route inside one owner's cell, a route across two
// owners' cells, and a model fetch, conditional (304) and full. legs/op
// is waldo_cluster_requests_total per query: 0, as the gateway answers
// from its replicas — every shard's grid from NewGateway on, and the
// descriptor of every store that grid names.
func BenchmarkGatewayPlaceQueries(b *testing.B) {
	tc := newTestCluster(b, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(b, tc, 47)
	oneOwner, twoOwners := tc.placeRoutes(b, free)
	loc := free["s0"]
	avail := fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon)
	model := tc.gwTS.URL + "/v1/model?channel=47&sensor=1" + hintAt(loc)
	etag := ask(b, model, "").etag
	followed(b, tc.gw.shards["s0"])
	httpc := tc.gwTS.Client()
	for _, bb := range []struct {
		name, get, inm string
		route          []byte
	}{
		{"availability", avail, "", nil}, {"route_one_owner", "", "", oneOwner}, {"route_two_owners", "", "", twoOwners},
		{"model_conditional", model, etag, nil}, {"model_full", model, "", nil},
	} {
		b.Run(bb.name, func(b *testing.B) {
			b.ReportAllocs()
			legs := tc.legs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var resp *http.Response
				var err error
				if bb.route == nil {
					req, _ := http.NewRequest(http.MethodGet, bb.get, nil)
					if bb.inm != "" {
						req.Header.Set("If-None-Match", bb.inm)
					}
					resp, err = httpc.Do(req)
				} else {
					resp, err = httpc.Post(tc.gwTS.URL+"/v1/route", "application/json", bytes.NewReader(bb.route))
				}
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
					b.Fatalf("%s = %s", bb.name, resp.Status)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tc.legs()-legs)/float64(b.N), "legs/op")
		})
	}
}

// BenchmarkFrameEncode prices what shipping a 256-reading upload adds
// to its journal step: encoding the store mutation record (once, shared
// with the WAL) and framing it into the replication log.
func BenchmarkFrameEncode(b *testing.B) {
	rs := synthReadings(256, 47, 1)
	var rec []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, _ = core.AppendReadingsRecord(rec[:0], rs)
		if buf := appendFrame(make([]byte, 0, frameHeaderSize-1+len(rec)), uint64(i)+1, 47, sensor.KindRTLSDR, rec); len(buf) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// legFrameReadings is the frame the leg cost is pinned at: 64 readings,
// 4 296 bytes, just past a 4 KB write buffer.
const legFrameReadings = 64

// BenchmarkLegExchange prices one gateway→shard exchange — a forwarded
// 64-reading frame answered 204 over loopback — on the leg transport
// and on the stock http.Transport it replaced, configured as it was.
// The shard drains the body and nothing else, so the difference is the
// transports'. `go test -run '^$' -bench LegExchange -cpu 1
// ./internal/cluster/` (the gateway ships at GOMAXPROCS=1).
func BenchmarkLegExchange(b *testing.B) {
	leg := &legTransport{}
	defer leg.Close()
	stock := &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 256, IdleConnTimeout: 90 * time.Second}
	defer stock.CloseIdleConnections()
	for _, bb := range []struct {
		name string
		rt   http.RoundTripper
	}{{"leg", leg}, {"stock", stock}} {
		b.Run(bb.name, func(b *testing.B) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body) //nolint:errcheck
				w.WriteHeader(http.StatusNoContent)
			}))
			defer ts.Close()
			benchUpload(b, &http.Client{Transport: bb.rt}, ts.URL+batchFramePath, frameOf(b, synthReadings(legFrameReadings, 47, 1)))
		})
	}
}

// TestForwardedFrameIsOneWrite: a forwarded 64-reading frame reaches the
// shard whole — headers and body — in the shard's first read, which on
// loopback means the gateway sent it with one write.
func TestForwardedFrameIsOneWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frame := frameOf(t, synthReadings(legFrameReadings, 47, 1))
	firstRead := make(chan []byte, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 64<<10)
				n, _ := c.Read(buf)
				if bytes.HasPrefix(buf[:n], []byte("GET "+gridPath+" ")) { // a grid follower's poll: parked until the gateway hangs up
					io.Copy(io.Discard, c) //nolint:errcheck
					return
				}
				firstRead <- buf[:n]
				io.WriteString(c, "HTTP/1.1 204 No Content\r\n\r\n") //nolint:errcheck
			}()
		}
	}()
	gw, err := NewGateway(GatewayConfig{Shards: []ShardSpec{{ID: "s0", URLs: []string{"http://" + ln.Addr().String()}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if rec := serveGateway(context.Background(), gw, http.MethodPost, batchFramePath, frame); rec.Code != http.StatusNoContent {
		t.Fatalf("upload = %d %s", rec.Code, rec.Body)
	}
	got := <-firstRead
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(got)))
	if err != nil {
		t.Fatalf("shard's first read (%d bytes) is not a whole request head: %v", len(got), err)
	}
	body, _ := io.ReadAll(req.Body)
	if !bytes.Equal(body, frame) {
		t.Errorf("shard's first read of %d bytes held %d of the frame's %d bytes", len(got), len(body), len(frame))
	}
}

// inprocShard carries legs straight into a handler, as bench's traced
// run does, so an allocation count sees the gateway and the shard only.
type inprocShard struct{ h http.Handler }

func (s inprocShard) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestGatewayForwardAllocBudget holds the gateway's own allocations per
// forwarded frame — through the gateway minus the same frame straight
// into the shard handler, bench's cluster.gateway_upload_allocs — to the
// 65 ROADMAP item 8 budgeted.
func TestGatewayForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	n, _ := newTestNode(t, "s0", "")
	gw, err := NewGateway(GatewayConfig{
		Shards:     []ShardSpec{{ID: "s0", URLs: []string{"http://s0.inproc"}}},
		HTTPClient: &http.Client{Transport: inprocShard{n.Handler()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	frame := frameOf(t, synthReadings(legFrameReadings, 47, 1))
	upload := func(h http.Handler) func() {
		return func() {
			req := httptest.NewRequest(http.MethodPost, batchFramePath, bytes.NewReader(frame))
			req.Header.Set("Content-Type", "application/octet-stream")
			req.Header.Set(dbserver.CISpanHeader, "0.4")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNoContent {
				t.Fatalf("upload = %d %s", rec.Code, rec.Body)
			}
		}
	}
	direct := testing.AllocsPerRun(200, upload(n.Handler()))
	via := testing.AllocsPerRun(200, upload(gw.Handler()))
	t.Logf("allocs per frame: direct %.0f, via gateway %.0f", direct, via)
	if own := via - direct; own > 65 {
		t.Errorf("gateway allocates %.0f per forwarded frame, budget 65", own)
	}
}

// TestGatewayUploadAllocBudget holds the gateway's own allocations per
// forwarded single-owner frame — 64 readings through g.Handler() to a
// stub shard that allocates nothing, minus the same request answered by
// a handler that only drains it — at 44; the gateway allocated 51
// when legs went through http.Client and url.Parse and upload bodies
// were read into a fresh buffer each.
func TestGatewayUploadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	gw, stub := stubGateway(t, 0)
	frame := frameOf(t, synthAt(legFrameReadings, 47, 1, cellCenter(rfenv.MetroCenter)))
	upload := func(h http.Handler) func() {
		return func() {
			req := httptest.NewRequest(http.MethodPost, batchFramePath, bytes.NewReader(frame))
			req.Header.Set("Content-Type", "application/octet-stream")
			req.Header.Set(dbserver.CISpanHeader, "0.4")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNoContent {
				t.Fatalf("upload = %d %s", rec.Code, rec.Body)
			}
		}
	}
	drain := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.WriteHeader(http.StatusNoContent)
	})
	own := testing.AllocsPerRun(200, upload(gw.Handler())) - testing.AllocsPerRun(200, upload(drain))
	if stub.lastLen != int64(len(frame)) {
		t.Fatalf("the leg carried %d bytes, want the %d-byte frame", stub.lastLen, len(frame))
	}
	t.Logf("gateway allocs per forwarded frame: %.0f", own)
	if own > 44 {
		t.Errorf("gateway allocates %.0f per forwarded frame, budget 44", own)
	}
}
