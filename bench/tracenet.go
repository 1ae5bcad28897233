package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/wal"
)

// The traced run of a network workload replays a prefix of the same op
// list, single-goroutine and in-process: the same dbserver (and, for the
// cluster workloads, three cluster.Nodes behind a cluster.Gateway whose
// HTTP client dispatches straight into the shard handlers), configured
// like the shipped binaries. No socket is involved, so handler spans are
// pure handler time and a gateway span minus its shard spans is the
// gateway's self time.

const (
	traceOps       = 2000 // ops of the list replayed under spans
	traceAllocOps  = 300  // calls per allocs-per-op measurement
	traceSlowCalls = 7    // repetitions of millisecond-scale calls
	syncEvery      = 32   // appends between Store.Sync spans
)

// handlerSpan names the span around a dbserver handler by route.
var handlerSpan = map[string]string{
	"/v1/upload/batch": "dbserver.upload_batch_handler",
	"/v1/readings":     "dbserver.readings_handler",
	"/v1/model":        "dbserver.model_handler",
	"/v1/availability": "dbserver.availability_handler",
	"/v1/route":        "dbserver.route_handler",
	"/v1/retrain":      "dbserver.retrain_handler",
}

// gatewaySpan names the span around the gateway handler by op kind.
func gatewaySpan(k opKind) string {
	switch k {
	case opUploadSplit:
		return "cluster.gateway_upload_split"
	case opUploadJSON, opUploadFrame:
		return "cluster.gateway_upload"
	case opAvailOne:
		return "cluster.gateway_availability"
	case opAvailAll:
		return "cluster.gateway_availability_merge"
	case opRoute:
		return "cluster.gateway_route"
	default:
		return "cluster.gateway_model"
	}
}

// shippedDBConfig is what waldo-server builds from its flag defaults.
func shippedDBConfig(dataDir string) dbserver.Config {
	return dbserver.Config{
		Constructor:   constructorConfig(core.KindSVM),
		AlphaPrimeDB:  1.0,
		DataDir:       dataDir,
		SnapshotEvery: 10000,
	}
}

// inproc is the in-process SUT of a traced run.
type inproc struct {
	tr     *tracer
	front  http.Handler            // what a client talks to: the server, or the gateway
	shard  http.Handler            // one dbserver handler, for direct calls
	shards map[string]http.Handler // by host, for the gateway's transport
	close  func()

	// cur is the open top-level span and its op; shard spans begun by
	// the gateway's legs attach to it.
	cur   atomic.Int64
	curOp atomic.Int64
	etags map[int]string // site → validator, for conditional fetches
}

// RoundTrip carries a gateway→shard request into the shard's handler and
// records the shard-handler span.
func (p *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := p.shards[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("inproc: unknown shard host %q", req.URL.Host)
	}
	id := p.tr.begin(handlerSpan[req.URL.Path], int(p.cur.Load()), int(p.curOp.Load()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	p.tr.end(id)
	return rec.Result(), nil
}

// serve sends one request into a handler and returns the recorder.
func serve(h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// newInproc boots and bootstraps the in-process SUT for a workload.
func newInproc(wl, dir string, groups []cellGroup, tr *tracer) (*inproc, error) {
	p := &inproc{tr: tr, etags: map[int]string{}}
	if wl == wlIngestSingle {
		srv, err := dbserver.Open(shippedDBConfig(filepath.Join(dir, "single")))
		if err != nil {
			return nil, err
		}
		var all []dataset.Reading
		for _, g := range groups {
			all = append(all, g.readings...)
		}
		if err := srv.Bootstrap(all); err != nil {
			srv.Close()
			return nil, err
		}
		p.front, p.shard, p.close = srv.Handler(), srv.Handler(), func() { srv.Close() }
		return p, nil
	}

	p.shards = map[string]http.Handler{}
	var nodes []*cluster.Node
	var specs []cluster.ShardSpec
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	for _, id := range shardIDs() {
		n, err := cluster.OpenNode(cluster.NodeConfig{ID: id, DB: shippedDBConfig(filepath.Join(dir, id))})
		if err != nil {
			closeAll()
			return nil, err
		}
		nodes = append(nodes, n)
		p.shards[id+".inproc"] = n.Handler()
		specs = append(specs, cluster.ShardSpec{ID: id, URLs: []string{"http://" + id + ".inproc"}})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Shards: specs, HTTPClient: &http.Client{Transport: p}})
	if err != nil {
		closeAll()
		return nil, err
	}
	p.front, p.shard = gw.Handler(), nodes[0].Handler()
	p.close = func() { gw.Close(); closeAll() }
	tr.on = false
	defer func() { tr.on = true }()
	seen := map[rfenv.Channel]bool{}
	for i := range groups {
		body, err := jsonUpload(groups[i].readings)
		if err != nil {
			p.close()
			return nil, err
		}
		if rec := serve(p.front, http.MethodPost, "/v1/readings", body, hdrJSON); rec.Code != http.StatusNoContent {
			p.close()
			return nil, fmt.Errorf("inproc bootstrap upload: %d %s", rec.Code, rec.Body)
		}
		seen[groups[i].ch] = true
	}
	for ch := range seen {
		path := fmt.Sprintf("/v1/retrain?channel=%d&sensor=%d", int(ch), int(rtl))
		if rec := serve(p.front, http.MethodPost, path, nil, nil); rec.Code != http.StatusOK {
			p.close()
			return nil, fmt.Errorf("inproc bootstrap retrain: %d %s", rec.Code, rec.Body)
		}
	}
	return p, nil
}

// replayOp sends op i to the front handler under a top-level span.
func (p *inproc) replayOp(i int, o *op, clustered bool) error {
	method, hdr := http.MethodGet, map[string]string(nil)
	switch o.kind {
	case opUploadJSON, opRoute:
		method, hdr = http.MethodPost, hdrJSON
	case opUploadFrame, opUploadSplit:
		method, hdr = http.MethodPost, hdrFrame
	case opModelCond, opFreshnessSlot:
		if etag, ok := p.etags[o.site]; ok {
			hdr = map[string]string{"If-None-Match": etag}
		}
	}
	path, _, _ := strings.Cut(o.path, "?")
	name := handlerSpan[path]
	if clustered {
		name = gatewaySpan(o.kind)
	}
	id := p.tr.begin(name, 0, i)
	p.cur.Store(int64(id))
	p.curOp.Store(int64(i))
	rec := serve(p.front, method, o.path, o.body, hdr)
	p.tr.end(id)
	switch rec.Code {
	case http.StatusOK, http.StatusNoContent, http.StatusNotModified:
	default:
		return fmt.Errorf("traced op %d %s: %d %s", i, o.path, rec.Code, rec.Body)
	}
	if o.kind.class() == classModel && rec.Code == http.StatusOK {
		p.etags[o.site] = rec.Header().Get("ETag")
	}
	return nil
}

// traceBlock is how many consecutive ops share a tracer state in the
// replay: one round of the query pattern, so both states see every kind.
const traceBlock = len(queryPattern)

// traced reports whether replayed op i runs with the tracer on.
func traced(i int) bool { return i/traceBlock%2 == 1 }

// traceNet is the traced run of a network workload: it adds the T
// metrics to res and appends its spans to the harness's trace.
func traceNet(h *harness, wl string, seed int64, ops []op, groups []cellGroup, res *result) error {
	dir, err := h.tempDir("trace-" + wl)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, err := newInproc(wl, dir, groups, tr)
	if err != nil {
		return err
	}
	defer p.close()
	clustered := wl != wlIngestSingle
	n := min(len(ops), 2*traceOps)

	// Blocks of traceBlock ops alternate between tracer off and on: the
	// spans come from the on blocks, and the two halves' median op times
	// give the tracing overhead without the store's growth, or a
	// background snapshot's stall, between them.
	var wall [2][]float64
	for i := 0; i < n; i++ {
		tr.on = traced(i)
		t0 := time.Now()
		if err := p.replayOp(i, &ops[i], clustered); err != nil {
			return err
		}
		wall[i/traceBlock%2] = append(wall[i/traceBlock%2], float64(time.Since(t0)))
	}
	tr.on = true
	m := res.Metrics
	off, on := median(wall[0]), median(wall[1])
	m.set("bench.trace_overhead_share", ratio(on-off, off))

	if wl == wlQueryMixed {
		err = traceQueryLayers(p, tr, seed, ops, groups, m)
	} else {
		err = traceIngestLayers(p, tr, dir, ops[:n], groups, clustered, m)
	}
	if err != nil {
		return err
	}

	total, self := tr.durations()
	for _, name := range handlerSpan {
		if name == "dbserver.retrain_handler" {
			putSpanMedian(m, name+"_ms", total, name, 1e6)
		} else {
			putSpanMedian(m, name+"_us", total, name, 1e3)
		}
	}
	for _, k := range []opKind{opUploadFrame, opUploadSplit, opModelFull, opAvailOne, opAvailAll, opRoute} {
		putSpanMedian(m, gatewaySpan(k)+"_us", self, gatewaySpan(k), 1e3)
	}
	for span, metric := range map[string]string{
		"core.decode_frame": "core.decode_frame_us", "core.encode_frame": "core.encode_frame_us",
		"core.submit": "core.submit_us", "wal.append": "wal.append_us", "wal.sync": "wal.sync_us",
		"core.encode_model": "core.encode_model_us", "core.decode_model": "core.decode_model_us",
		"geoindex.sample_route": "geoindex.sample_route_us"} {
		putSpanMedian(m, metric, total, span, 1e3)
	}
	putSpanMedian(m, "core.retrain_ms", total, "core.retrain", 1e6)
	putSpanMedian(m, "geoindex.rebuild_ms", total, "geoindex.rebuild", 1e6)
	putSpanMedian(m, "geoindex.lookup_ns", total, "geoindex.lookup", nsBatch)
	putSpanMedian(m, "cluster.ring_owner_ns", total, "cluster.ring_owner", nsBatch)
	res.spans = tr.spans
	return nil
}

// nsBatch is how many calls one span covers when a single call is too
// short to time (tens of nanoseconds).
const nsBatch = 1000

// traceIngestLayers times the layers under the upload handlers on the
// replayed frames: decode, submit and WAL append run again on their own
// under the op id of the handler span, so handler − decode − submit −
// append is the handler's self time.
func traceIngestLayers(p *inproc, tr *tracer, dir string, ops []op, groups []cellGroup, clustered bool, m metricSet) error {
	updaters := map[rfenv.Channel]*core.Updater{}
	stores := map[rfenv.Channel]*wal.Store{}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	for _, g := range groups {
		u := updaters[g.ch]
		if u == nil {
			var err error
			if u, err = core.NewUpdater(core.UpdaterConfig{Constructor: constructorConfig(core.KindSVM), Channel: g.ch, Sensor: rtl}); err != nil {
				return err
			}
			updaters[g.ch] = u
			if stores[g.ch], _, err = wal.OpenStore(filepath.Join(dir, "walprobe", wal.StoreDirName(g.ch, rtl)), g.ch, rtl, wal.StoreOptions{}); err != nil {
				return err
			}
		}
		u.Bootstrap(g.readings)
	}

	var scratch []dataset.Reading
	var frames [][]byte
	appends := 0
	for i := range ops {
		o := &ops[i]
		if !traced(i) || (o.kind != opUploadFrame && o.kind != opUploadSplit) {
			continue
		}
		frames = append(frames, o.body)
		id := tr.begin("core.decode_frame", 0, i)
		rs, _, err := core.DecodeBatchFrame(scratch[:0], o.body)
		tr.end(id)
		if err != nil {
			return err
		}
		scratch = rs
		ch := rs[0].Channel
		id = tr.begin("core.submit", 0, i)
		err = updaters[ch].Submit(core.UploadBatch{Readings: rs, CISpanDB: uploadCISpanDB})
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("wal.append", 0, i)
		stores[ch].AppendReadings(context.Background(), rs)
		tr.end(id)
		if appends++; appends%syncEvery == 0 {
			id = tr.begin("wal.sync", 0, i)
			err = stores[ch].Sync()
			tr.end(id)
			if err != nil {
				return err
			}
		}
		id = tr.begin("core.encode_frame", 0, i)
		_, err = core.EncodeBatchFrame(rs)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	if len(frames) == 0 {
		return fmt.Errorf("traced prefix holds no binary frame")
	}

	// Allocations per op, spans off.
	tr.on = false
	defer func() { tr.on = true }()
	upload := func(h http.Handler, path string, hdr map[string]string, bodies [][]byte) func(int) error {
		return func(i int) error {
			if rec := serve(h, http.MethodPost, path, bodies[i%len(bodies)], hdr); rec.Code != http.StatusNoContent {
				return fmt.Errorf("alloc probe %s: %d %s", path, rec.Code, rec.Body)
			}
			return nil
		}
	}
	var jsons, plain [][]byte
	for i := range ops {
		switch ops[i].kind {
		case opUploadJSON:
			jsons = append(jsons, ops[i].body)
		case opUploadFrame:
			plain = append(plain, ops[i].body)
		}
	}
	direct, err := allocsPerOp(traceAllocOps, upload(p.shard, "/v1/upload/batch", hdrFrame, plain))
	if err != nil {
		return err
	}
	m.set("dbserver.upload_batch_allocs", direct)
	readings, err := allocsPerOp(traceAllocOps, upload(p.shard, "/v1/readings", hdrJSON, jsons))
	if err != nil {
		return err
	}
	m.set("dbserver.readings_allocs", readings)
	// Decode reuses its scratch slice, so what is left is Submit's.
	submit, err := allocsPerOp(traceAllocOps, func(i int) error {
		rs, _, err := core.DecodeBatchFrame(scratch[:0], frames[i%len(frames)])
		if err != nil {
			return err
		}
		return updaters[rs[0].Channel].Submit(core.UploadBatch{Readings: rs, CISpanDB: uploadCISpanDB})
	})
	if err != nil {
		return err
	}
	m.set("core.submit_allocs", submit)
	if clustered {
		// The gateway's own allocations: a forwarded frame through the
		// gateway minus the same frame straight into a shard handler.
		via, err := allocsPerOp(traceAllocOps, upload(p.front, "/v1/upload/batch", hdrFrame, plain))
		if err != nil {
			return err
		}
		m.set("cluster.gateway_upload_allocs", via-direct)
		ring, err := benchRing()
		if err != nil {
			return err
		}
		tr.on = true
		tr.timed("cluster.ring_owner", 50, nsBatch, func(i int) error { //nolint:errcheck // fn never fails
			g := &groups[i%len(groups)]
			ring.Owner(cluster.RouteKey{Channel: g.ch, Cell: g.cell})
			return nil
		})
	}
	return nil
}

// traceQueryLayers times what sits under query_mixed: retrain (handler
// and bare Updater), the model codec, and the availability grid.
func traceQueryLayers(p *inproc, tr *tracer, seed int64, ops []op, groups []cellGroup, m metricSet) error {
	sites := genSites(groups)
	s := &sites[0]

	// Retrain through the front door: the shard-handler span is
	// dbserver.retrain_handler.
	for i := 0; i < traceSlowCalls; i++ {
		id := tr.begin("cluster.gateway_retrain", 0, -1-i)
		p.cur.Store(int64(id))
		p.curOp.Store(int64(-1 - i))
		rec := serve(p.front, http.MethodPost, "/v1/retrain?"+s.query, nil, nil)
		tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced retrain: %d %s", rec.Code, rec.Body)
		}
	}

	// The same store, exported, retrained on a bare Updater.
	p.cur.Store(0)
	tr.on = false
	rec := serve(p.front, http.MethodGet, "/v1/export?"+s.query, nil, nil)
	tr.on = true
	if rec.Code != http.StatusOK {
		return fmt.Errorf("traced export: %d %s", rec.Code, rec.Body)
	}
	store, err := dataset.ReadCSV(rec.Body)
	if err != nil {
		return err
	}
	u, err := core.NewUpdater(core.UpdaterConfig{Constructor: constructorConfig(core.KindSVM)})
	if err != nil {
		return err
	}
	u.Bootstrap(store)
	if err := tr.timed("core.retrain", traceSlowCalls, 1, func(int) error { _, err := u.Retrain(); return err }); err != nil {
		return err
	}
	model, _ := u.Model()
	var blob bytes.Buffer
	if err := tr.timed("core.encode_model", traceAllocOps, 1, func(int) error {
		blob.Reset()
		return core.EncodeModel(&blob, model)
	}); err != nil {
		return err
	}
	m.set("core.model_bytes", float64(blob.Len()))
	if err := tr.timed("core.decode_model", traceAllocOps, 1, func(int) error {
		_, err := core.DecodeModel(bytes.NewReader(blob.Bytes()))
		return err
	}); err != nil {
		return err
	}

	// The availability grid over the bootstrap campaign's nine stores.
	byCh := map[rfenv.Channel][]dataset.Reading{}
	for _, g := range groups {
		byCh[g.ch] = append(byCh[g.ch], g.readings...)
	}
	var snaps []geoindex.StoreSnapshot
	for _, ch := range metroChannels {
		if len(byCh[ch]) == 0 {
			continue
		}
		model, err := buildChannel(byCh[ch], constructorConfig(core.KindSVM))
		if err != nil {
			return err
		}
		snaps = append(snaps, geoindex.StoreSnapshot{Channel: ch, Sensor: rtl, Model: model, ModelVersion: 1, Recent: byCh[ch]})
	}
	idx := geoindex.New(geoindex.Config{Source: func() []geoindex.StoreSnapshot { return snaps }})
	defer idx.Close()
	var snap *geoindex.Snapshot
	tr.timed("geoindex.rebuild", traceSlowCalls, 1, func(int) error { //nolint:errcheck // fn never fails
		snap = idx.Rebuild(context.Background())
		return nil
	})
	m.set("geoindex.cells", float64(snap.Cells()))
	tr.timed("geoindex.lookup", 50, nsBatch, func(i int) error { //nolint:errcheck // fn never fails
		snap.Lookup(groups[i%len(groups)].cell)
		return nil
	})
	tr.timed("geoindex.sample_route", traceAllocOps, 1, func(i int) error { //nolint:errcheck // fn never fails
		from := sites[i%len(sites)].loc
		mid := from.Offset(float64(i%360), routeLegM)
		geoindex.SampleRoute([]geo.Point{from, mid, mid.Offset(float64(i%360)+60, routeLegM)}, routeStepM, 0)
		return nil
	})

	// Allocations of a full model fetch straight into a shard handler.
	tr.on = false
	defer func() { tr.on = true }()
	owner := p.shards[s.group.owner+".inproc"]
	a, err := allocsPerOp(traceAllocOps, func(int) error {
		if rec := serve(owner, http.MethodGet, "/v1/model?"+s.query, nil, nil); rec.Code != http.StatusOK {
			return fmt.Errorf("alloc probe model: %d %s", rec.Code, rec.Body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("dbserver.model_allocs", a)
	return nil
}
