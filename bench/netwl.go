package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// The three network workloads share one skeleton: generate inputs, boot
// the shipped binaries with their flag defaults, bootstrap, warm up,
// then replay the rest of the op list inside the timed window with
// /proc and /metrics sampled at its edges.

// netOpsPerSecond sizes an op list per second of -seconds: about what
// this workload completes per second on the 2-core machine the benchmark
// was sized on, so a run's windows together take about -seconds. The
// lists are fixed by the seed and the run length, not by a clock: the
// reading store is append-only in RAM and per-op cost grows with it, so
// two commits are comparable only when both ingest identical totals.
var netOpsPerSecond = map[string]float64{wlIngestSingle: 5000, wlIngestCluster: 1900, wlQueryMixed: 1900}

// netStack is one booted SUT plus the load generator aimed at it.
type netStack struct {
	h       *harness
	servers []*sutProc
	gateway *sutProc // nil on ingest_single
	dataDir string   // parent of every server's -data-dir
	// serverArgs are the flags ingest_single's server was started with,
	// minus -data, for the crash-recovery restart.
	serverArgs []string
	bootstrap  int // readings loaded before any op
	gen        *loadgen
	groups     []cellGroup
}

func (s *netStack) procs() []*sutProc {
	if s.gateway == nil {
		return s.servers
	}
	return append(append([]*sutProc(nil), s.servers...), s.gateway)
}

func (s *netStack) close() {
	s.gen.close()
	s.h.stop(s.procs()...)
	os.RemoveAll(s.dataDir) //nolint:errcheck // the work dir is removed on exit anyway
}

// post sends a set-up request (bootstrap upload, retrain) and requires
// the given status.
func post(url, contentType string, body []byte, want int) error {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body) //nolint:errcheck // best-effort error text
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(msg.String()))
	}
	return nil
}

// setupNet performs one complete set-up of a network workload: campaign
// and op-list generation, process boot, bootstrap, warm-up.
func setupNet(h *harness, wl string, seed int64, nOps int) (*netStack, error) {
	h.newStack()
	ring, err := benchRing()
	if err != nil {
		return nil, err
	}
	channels := ingestChannels
	if wl == wlQueryMixed {
		channels = metroChannels
	}
	camp, err := genCampaign(bootstrapSamples, channels)
	if err != nil {
		return nil, err
	}
	st := &netStack{h: h, groups: groupByCell(camp, channels, ring)}
	var ops []op
	var sites []site
	if wl == wlQueryMixed {
		sites = genSites(st.groups)
		ops, err = genQueryOps(seed, sites, nOps)
	} else {
		ops, err = genIngestOps(seed, st.groups, nOps)
	}
	if err != nil {
		return nil, err
	}
	for _, g := range st.groups {
		st.bootstrap += len(g.readings)
	}
	if st.dataDir, err = h.tempDir(wl); err != nil {
		return nil, err
	}

	if wl == wlIngestSingle {
		err = st.bootSingle(camp)
	} else {
		err = st.bootCluster(channels)
	}
	if err != nil {
		h.stop(st.procs()...)
		return nil, err
	}
	base := st.servers[0].url
	if st.gateway != nil {
		base = st.gateway.url
	}
	st.gen = newLoadgen(base, ops, sites)
	st.gen.run(0, min(warmupOps, nOps), nil)
	if wl == wlQueryMixed {
		// The bootstrap retrains and the warm-up's probe leave grid rebuilds
		// behind; every window starts after they have finished.
		if err := st.gridQuiet(); err != nil {
			return nil, err
		}
	}
	// Freshness samples and model checks count from the window on; acked
	// readings keep counting, the store check needs the warm-up's too.
	st.gen.fresh, st.gen.checks = nil, modelChecks{}
	return st, nil
}

// singleSnapshotEvery is the one flag ingest_single does not leave at its
// shipped value (10000). Two stores take every reading of that workload,
// so at the default the server rewrites a store of up to 40 MB some twenty
// times a second: 6 GB of disk writes per run, on a disk the host shares,
// and a compaction race (triggers that arrive while one is in flight are
// dropped) that decides CPU per op. At 100000 a store is compacted six
// times per window, 1 GB per run. The cluster's shards keep the default:
// six stores share the same readings, and their snapshots stay small.
const singleSnapshotEvery = "100000"

// bootSingle starts one waldo-server on a bootstrap CSV with a durable
// store and singleSnapshotEvery, every other flag at its default.
func (s *netStack) bootSingle(camp *wardrive.Campaign) error {
	var all []dataset.Reading
	for _, ch := range ingestChannels {
		all = append(all, camp.Readings(ch, rtl)...)
	}
	csv := filepath.Join(s.dataDir, "bootstrap.csv")
	f, err := os.Create(csv)
	if err != nil {
		return err
	}
	if err := dataset.WriteCSV(f, all); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.serverArgs = []string{"-data-dir", filepath.Join(s.dataDir, "store"), "-snapshot-every", singleSnapshotEvery}
	p, err := s.h.start("waldo-server", "waldo-server", "", append([]string{"-data", csv}, s.serverArgs...)...)
	if p != nil {
		s.servers = []*sutProc{p}
	}
	return err
}

// bootCluster starts three shards and a gateway, one P each, and
// bootstraps them the way an operator would: one routed upload per
// (channel, cell), then a broadcast retrain per channel.
func (s *netStack) bootCluster(channels []rfenv.Channel) error {
	var topo []string
	for _, id := range shardIDs() {
		p, err := s.h.start("shard-"+id, "waldo-server", "1",
			"-shard-id", id, "-data-dir", filepath.Join(s.dataDir, id))
		if p != nil {
			s.servers = append(s.servers, p)
		}
		if err != nil {
			return err
		}
		topo = append(topo, id+"="+p.url)
	}
	gw, err := s.h.start("waldo-gateway", "waldo-gateway", "1", "-shards", strings.Join(topo, ";"))
	s.gateway = gw
	if err != nil {
		return err
	}
	for i := range s.groups {
		body, err := jsonUpload(s.groups[i].readings)
		if err != nil {
			return err
		}
		if err := post(gw.url+"/v1/readings", "application/json", body, http.StatusNoContent); err != nil {
			return fmt.Errorf("bootstrap upload: %w", err)
		}
	}
	for _, ch := range channels {
		url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d", gw.url, int(ch), int(rtl))
		if err := post(url, "", nil, http.StatusOK); err != nil {
			return fmt.Errorf("bootstrap retrain: %w", err)
		}
	}
	return nil
}

// storeTotal sums /v1/stats reading counts (the gateway sums shards).
func storeTotal(base string) (int, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var stats []dbserver.StatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, err
	}
	total := 0
	for _, s := range stats {
		total += s.Readings
	}
	return total, nil
}

func scrapeAll(procs []*sutProc) ([]promSample, error) {
	out := make([]promSample, len(procs))
	for i, p := range procs {
		s, err := scrape(p.url)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[i] = s
	}
	return out, nil
}

// netWindow is what one timed window of a network workload measured.
type netWindow struct {
	timedWindow
	before, after []promSample // /metrics of every SUT process around the window
	acked         int64        // readings acknowledged inside the window
	byClass       [numClasses]samples
	failed        int
}

// measure replays the list's timed part against the booted stack:
// /metrics of every SUT process scraped outside the timed ops, /proc CPU
// clocks marked at every segment boundary.
func (s *netStack) measure(nOps int) (*netWindow, error) {
	gen := s.gen
	procs := s.procs() // servers first, the gateway last
	w := &netWindow{}
	ackedBefore := gen.acked.Load()
	var err error
	if w.before, err = scrapeAll(procs); err != nil {
		return nil, err
	}
	win := &window{probe: func() ([]time.Duration, error) {
		cpu := make([]time.Duration, len(procs))
		for i, p := range procs {
			var err error
			if cpu[i], err = p.cpu(); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
		}
		return cpu, nil
	}}
	// The shards' compaction, WAL flushing and GC go on after a reply and
	// made a sample read 15-20 % slow on ingest_cluster; stopped, they
	// cannot. With one client nothing is in flight while it samples.
	win.pause = func(stop bool) {
		sig := syscall.SIGCONT
		if stop {
			sig = syscall.SIGSTOP
		}
		for _, p := range procs {
			p.cmd.Process.Signal(sig) //nolint:errcheck // an exited process fails its next op
		}
	}
	gen.run(warmupOps, nOps, win)
	if win.err != nil {
		return nil, win.err
	}
	if w.after, err = scrapeAll(procs); err != nil {
		return nil, err
	}
	w.acked = gen.acked.Load() - ackedBefore
	w.timedWindow = win.finish(func(from, to int) samples {
		all, _, _ := gen.classSamples(from, to)
		return all
	})
	_, w.byClass, w.failed = gen.classSamples(warmupOps, nOps)
	return w, nil
}

// checkStore requires /v1/stats (summed across shards by the gateway) to
// equal the bootstrap plus every acknowledged reading.
func (s *netStack) checkStore(res *result) (int, error) {
	want := s.bootstrap + int(s.gen.acked.Load())
	got, err := storeTotal(s.gen.base)
	if err != nil {
		return 0, err
	}
	res.addCheck("store_holds_every_acked_reading", got == want,
		"/v1/stats sums to %d; bootstrap %d + acked %d = %d", got, s.bootstrap, s.gen.acked.Load(), want)
	return want, nil
}

// runNet runs one network workload end to end.
func runNet(h *harness, wl string, seed int64, seconds float64, traced bool) (*result, error) {
	if err := h.build(); err != nil {
		return nil, err
	}
	nOps := warmupOps + max(int(netOpsPerSecond[wl]*seconds/windowsPerRun), 2*len(queryPattern))
	res := &result{Workload: wl, Seed: seed, Seconds: seconds, Traced: traced, Metrics: metricSet{}}
	res.Ops.Warmup = warmupOps

	// windowsPerRun times: set up from scratch, replay the list inside a
	// timed window, check the store. The last stack stays up for the
	// checks and the traced run that follow.
	var (
		st      *netStack
		setups  []float64
		windows []*netWindow
		checks  modelChecks
		fresh   samples
	)
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for w := 0; w < windowsPerRun; w++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = setupNet(h, wl, seed, nOps); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w == 0 && wl == wlQueryMixed {
			if err := st.checkGatewayAgreesWithShards(res); err != nil {
				return nil, err
			}
		}
		nw, err := st.measure(nOps)
		if err != nil {
			return nil, err
		}
		windows = append(windows, nw)
		res.Ops.Attempted += nOps - warmupOps
		res.Ops.Failed += nw.failed
		res.Notes = append(res.Notes, st.gen.errs...)
		checks.add(st.gen.checks)
		fresh = append(fresh, st.gen.fresh...)
		if w < windowsPerRun-1 {
			if _, err := st.checkStore(res); err != nil {
				return nil, err
			}
		}
	}
	res.Ops.Succeeded = res.Ops.Attempted - res.Ops.Failed
	gen := st.gen
	res.Clients = len(gen.workers)
	for _, p := range st.procs() {
		res.Processes = append(res.Processes, procInfo{Name: p.name, GOMAXPROCS: p.gomaxprocs})
	}
	segs := make([]timedWindow, len(windows))
	var byClass [numClasses]samples
	var acked float64
	var readingsPerS []float64
	for r, w := range windows {
		segs[r] = w.timedWindow
		for c := range byClass {
			byClass[c] = append(byClass[c], w.byClass[c]...)
		}
		acked += float64(w.acked)
		readingsPerS = append(readingsPerS, float64(w.acked)/w.elapsed.Seconds())
	}
	res.Windows = dumpWindows(segs)
	ok := float64(res.Ops.Succeeded)
	m := res.Metrics
	// Clock indices in a mark: 0 the benchmark, then the servers, then
	// the gateway.
	srvLo, srvHi, sutHi := 1, 1+len(st.servers), 1+len(st.procs())
	perOp := func(lo, hi int) float64 {
		return combine(segs, true, func(s segment) float64 { return s.cpuPerOpUS(lo, hi) })
	}

	putEndToEnd(m, setups, segs, srvLo, sutHi)

	// Client-observed, per class: the samples of all windows together.
	const pooled = "all windows pooled"
	if wl != wlQueryMixed {
		m.put("ingest_readings_per_s", median(readingsPerS), len(readingsPerS), "median of windows")
		if up := byClass[classUpload].sortedMS(); supports(len(up), 99) {
			m.put("upload_p99_ms", percentile(up, 99), len(up), pooled)
		}
	}
	for class, name := range map[opClass]string{classUpload: "upload_p50_ms", classModel: "model_fetch_p50_ms",
		classAvailability: "availability_p50_ms", classRoute: "route_p50_ms"} {
		if s := byClass[class].sortedMS(); len(s) > 0 {
			m.put(name, percentile(s, 50), len(s), pooled)
		}
	}
	if f := fresh.sortedMS(); len(f) > 0 {
		m.put("model_fresh_p50_ms", percentile(f, 50), len(f), pooled)
	}

	// P: /proc at the segment boundaries.
	m.set("dbserver.cpu_us_per_op", perOp(srvLo, srvHi))
	var rss int64
	for _, p := range st.servers {
		b, err := p.peakRSS()
		if err != nil {
			return nil, err
		}
		rss += b
	}
	m.set("dbserver.peak_rss_mb", float64(rss)/(1<<20))
	self, sut := perOp(0, 1), perOp(srvLo, sutHi)
	m.set("bench.loadgen_cpu_us_per_op", self)
	share := ratio(self, self+sut)
	m.set("bench.loadgen_cpu_share", share)
	if share > 0.4 {
		res.Notes = append(res.Notes, fmt.Sprintf("WARNING: load generator used %.0f%% of loadgen+SUT CPU; throughput metrics are harness-bound", 100*share))
	}
	m.set("bench.build_s", h.buildS)
	if st.gateway != nil {
		m.set("cluster.gateway_cpu_us_per_op", perOp(srvHi, sutHi))
	}

	putScrapeMetrics(m, st, windows, ok, acked, &byClass)

	// Correctness.
	want, err := st.checkStore(res)
	if err != nil {
		return nil, err
	}
	switch wl {
	case wlIngestSingle:
		if err := st.checkCrashRecovery(res, want); err != nil {
			return nil, err
		}
	case wlQueryMixed:
		c := checks
		res.addCheck("model_bodies_decode", c.undecodable == 0 && c.modelBodies > 0, "%d of %d bodies failed core.DecodeModel", c.undecodable, c.modelBodies)
		res.addCheck("model_versions_monotone", c.backwards == 0, "%d fetches saw a version go backwards on one connection", c.backwards)
		res.addCheck("freshness_probe_sees_newer_model", c.staleFresh == 0 && c.freshSamples > 0,
			"%d of %d probes got a version not above the one they parked on", c.staleFresh, c.freshSamples)
	}
	if traced {
		if err := traceNet(h, wl, seed, gen.ops, st.groups, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// putScrapeMetrics reports the M metrics: deltas of the two /metrics
// scrapes taken around each window, summed over the windows; servers
// summed, the gateway (last in the scrape order, when there is one) on
// its own. ok is the ops that succeeded and acked the readings
// acknowledged inside the windows.
func putScrapeMetrics(m metricSet, st *netStack, windows []*netWindow, ok, acked float64, byClass *[numClasses]samples) {
	dS, dG := promDelta{}, promDelta{}
	for _, w := range windows {
		for i := range st.servers {
			dS.add(w.before[i], w.after[i])
		}
		if st.gateway != nil {
			dG.add(w.before[len(w.before)-1], w.after[len(w.after)-1])
		}
	}
	for route, name := range map[string]string{
		"/v1/upload/batch": "dbserver.http_upload_batch_mean_us", "/v1/readings": "dbserver.http_readings_mean_us",
		"/v1/model": "dbserver.http_model_mean_us", "/v1/availability": "dbserver.http_availability_mean_us",
		"/v1/route": "dbserver.http_route_mean_us"} {
		m.set(name, 1e6*dS.mean("waldo_http_request_seconds", `route="`+route+`"`))
	}
	m.set("dbserver.http_retrain_mean_ms", 1e3*dS.mean("waldo_http_request_seconds", `route="/v1/retrain"`))
	hit := dS.sum("waldo_dbserver_model_cache_total", `outcome="hit"`)
	miss := dS.sum("waldo_dbserver_model_cache_total", `outcome="miss"`)
	notMod := dS.sum("waldo_dbserver_model_cache_total", `outcome="not_modified"`)
	m.set("dbserver.model_cache_hit_share", ratio(hit, hit+miss))
	m.set("dbserver.model_304_share", ratio(notMod, hit+miss+notMod))
	m.set("dbserver.shed_total", dS.sum("waldo_dbserver_shed_total"))
	m.set("core.updater_rebuild_mean_ms", 1e3*dS.mean("waldo_updater_rebuild_seconds"))
	m.set("wal.fsyncs_per_kop", 1e3*ratio(dS.count("waldo_wal_fsync_seconds"), ok))
	m.set("wal.fsync_mean_ms", 1e3*dS.mean("waldo_wal_fsync_seconds"))
	m.set("wal.append_mean_us", 1e6*dS.mean("waldo_span_seconds", `span="wal/append"`))
	m.set("wal.bytes_per_reading", ratio(dS.sum("waldo_wal_appended_bytes_total"), acked))
	perWindow := float64(len(windows)) // counts are reported per window
	m.set("wal.snapshots", dS.sum("waldo_wal_snapshots_total")/perWindow)
	m.set("wal.disk_bytes_per_reading", ratio(float64(dirBytes(st.dataDir)), float64(st.bootstrap)+float64(st.gen.acked.Load())))
	m.set("geoindex.rebuilds", dS.sum("waldo_geoindex_rebuilds_total")/perWindow)
	m.set("geoindex.rebuild_mean_ms", 1e3*dS.mean("waldo_geoindex_rebuild_seconds"))
	m.set("geoindex.rebuild_coalesced", dS.sum("waldo_geoindex_rebuild_coalesced_total")/perWindow)
	if st.gateway != nil {
		m.set("cluster.split_share", ratio(dG.sum("waldo_cluster_upload_split_total"), float64(len(byClass[classUpload]))))
		merges := dG.sum("waldo_cluster_availability_merge_total", `outcome="merged"`) + dG.sum("waldo_cluster_route_merge_total", `outcome="ok"`)
		m.set("cluster.merge_share", ratio(merges, float64(len(byClass[classAvailability])+len(byClass[classRoute]))))
		m.set("cluster.proxy_errors", dG.sum("waldo_cluster_proxy_errors_total"))
	}
}

// putLatency reports the median and the highest supported percentile of
// a window's op latencies.
func putLatency(m metricSet, s samples) {
	sorted := s.sortedMS()
	if len(sorted) == 0 {
		return
	}
	m.put("op_p50_ms", percentile(sorted, 50), len(sorted), "")
	p := tailPercentile(len(sorted))
	m.put("op_tail_ms", percentile(sorted, p), len(sorted), fmt.Sprintf("p%g", p))
}

// killSettle is how long the crash check waits between the last ack and
// SIGKILL: twenty of the WAL's 5 ms group-commit windows, so every acked
// batch has been written. The OS page cache survives a process kill, so
// this checks replay, not fsync.
const killSettle = 100 * time.Millisecond

// checkCrashRecovery kills the single server with SIGKILL, restarts it
// on the same -data-dir with no bootstrap CSV, and requires every acked
// reading back. Time until healthy is wal.recovery_s.
func (s *netStack) checkCrashRecovery(res *result, want int) error {
	time.Sleep(killSettle)
	s.h.stop(s.servers...)
	t0 := time.Now()
	p, err := s.h.start("waldo-server", "waldo-server", "", s.serverArgs...)
	if p != nil {
		s.servers = []*sutProc{p}
	}
	if err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	recovery := time.Since(t0)
	got, err := storeTotal(p.url)
	if err != nil {
		return err
	}
	res.Metrics.set("wal.recovery_s", recovery.Seconds())
	res.addCheck("kill9_recovers_every_acked_reading", got == want,
		"after SIGKILL and restart on the same -data-dir the store holds %d of %d readings (page cache survives a process kill: this checks replay, not fsync)", got, want)
	return nil
}

// gridQuiet waits until no shard has rebuilt its availability grid for a
// few polls, so a gateway answer and a direct shard answer are taken
// from the same grid.
func (s *netStack) gridQuiet() error {
	last, stable := -1.0, 0
	for i := 0; i < 400 && stable < 3; i++ {
		var sum float64
		for _, p := range s.servers {
			sample, err := scrape(p.url)
			if err != nil {
				return err
			}
			sum += sample["waldo_geoindex_rebuilds_total"]
		}
		if sum == last {
			stable++
		} else {
			last, stable = sum, 0
		}
		time.Sleep(25 * time.Millisecond)
	}
	if stable < 3 {
		return fmt.Errorf("availability grids still rebuilding after 10s")
	}
	return nil
}

func getJSON(url string, body []byte, out any) error {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// agreementQueries is how many gateway-vs-shard comparisons run before
// the window, split between availability and route.
const agreementQueries = 50

// checkGatewayAgreesWithShards asks single-channel availability and
// route queries of the gateway and of the owning shard directly; the
// channel entries must be equal.
func (s *netStack) checkGatewayAgreesWithShards(res *result) error {
	if err := s.gridQuiet(); err != nil {
		return err
	}
	shardURL := map[string]string{}
	for i, id := range shardIDs() {
		shardURL[id] = s.servers[i].url
	}
	ring, err := benchRing()
	if err != nil {
		return err
	}
	mismatches, compared := 0, 0
	for q := 0; q < agreementQueries; q++ {
		g := &s.groups[(q*7)%len(s.groups)]
		loc := g.readings[0].Loc
		if q%2 == 0 {
			path := fmt.Sprintf("/v1/availability?lat=%.6f&lon=%.6f&channels=%d", loc.Lat, loc.Lon, int(g.ch))
			var viaGW, direct dbserver.AvailabilityJSON
			if err := getJSON(s.gateway.url+path, nil, &viaGW); err != nil {
				return err
			}
			if err := getJSON(shardURL[g.owner]+path, nil, &direct); err != nil {
				return err
			}
			compared++
			if !equalEntries(viaGW.Channels, direct.Channels) {
				mismatches++
			}
			continue
		}
		body, err := json.Marshal(dbserver.RouteRequestJSON{
			Points: []dbserver.RoutePointJSON{{Lat: loc.Lat, Lon: loc.Lon}, {Lat: loc.Lat + 0.04, Lon: loc.Lon + 0.04}},
			StepM:  routeStepM, HorizonS: routeHorizonS, Channels: []int{int(g.ch)},
		})
		if err != nil {
			return err
		}
		var viaGW dbserver.RouteJSON
		if err := getJSON(s.gateway.url+"/v1/route", body, &viaGW); err != nil {
			return err
		}
		direct := map[string]dbserver.RouteJSON{}
		for i, seg := range viaGW.Segments {
			owner := ring.Owner(cluster.RouteKey{Channel: g.ch, Cell: cluster.Cell{X: seg.CellX, Y: seg.CellY}})
			d, ok := direct[owner]
			if !ok {
				if err := getJSON(shardURL[owner]+"/v1/route", body, &d); err != nil {
					return err
				}
				direct[owner] = d
			}
			compared++
			if i >= len(d.Segments) || !equalEntries(seg.Channels, d.Segments[i].Channels) {
				mismatches++
			}
		}
	}
	res.addCheck("gateway_equals_owning_shard", mismatches == 0 && compared >= agreementQueries,
		"%d of %d single-channel availability cells and route segments differed between the gateway and the owning shard", mismatches, compared)
	return nil
}

// equalEntries compares channel verdicts, treating nil and empty alike
// (a merge of no entries encodes as [] where a shard encodes null).
func equalEntries(a, b []dbserver.AvailabilityEntryJSON) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
