package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testGroups(t *testing.T) []cellGroup {
	t.Helper()
	camp, err := genCampaign(300, metroChannels)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := benchRing()
	if err != nil {
		t.Fatal(err)
	}
	return groupByCell(camp, metroChannels, ring)
}

func TestOpListsAreDeterministicPerSeed(t *testing.T) {
	groups := testGroups(t)
	sites := genSites(groups)
	gens := map[string]func(seed int64) ([]op, error){
		"ingest": func(seed int64) ([]op, error) { return genIngestOps(seed, groups, 400) },
		"query":  func(seed int64) ([]op, error) { return genQueryOps(seed, sites, 400) },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed produced different op lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same op list", name)
		}
	}
}

func TestIngestListMix(t *testing.T) {
	ops, err := genIngestOps(1, testGroups(t), 4000)
	if err != nil {
		t.Fatal(err)
	}
	count := map[opKind]int{}
	for _, o := range ops {
		count[o.kind]++
		want := frameUploadReadings
		if o.kind == opUploadJSON {
			want = jsonUploadReadings
		}
		if o.readings != want {
			t.Fatalf("%v upload carries %d readings, want %d", o.kind, o.readings, want)
		}
	}
	if count[opUploadJSON] != 800 || count[opUploadSplit] != 400 || count[opUploadFrame] != 2800 {
		t.Errorf("mix = %d JSON, %d split, %d plain frames; want 800, 400, 2800", count[opUploadJSON], count[opUploadSplit], count[opUploadFrame])
	}
}

func TestQueryPatternMix(t *testing.T) {
	count := map[opKind]int{}
	for _, k := range queryPattern {
		count[k]++
	}
	want := map[opKind]int{opModelCond: 6, opModelFull: 2, opAvailOne: 3, opAvailAll: 2, opRoute: 4, opUploadFrame: 2, opFreshnessSlot: 1}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("pattern mix = %v, want %v", count, want)
	}
	if freshEvery%len(queryPattern) != 0 {
		t.Errorf("freshEvery %d must be a multiple of the pattern length so probes land on the freshness slot", freshEvery)
	}
	if queryPattern[(freshEvery-1)%len(queryPattern)] != opFreshnessSlot {
		t.Error("op freshEvery-1 is not the freshness slot")
	}
}

func radioDigest(r *replayRadio) uint64 {
	h := uint64(14695981039346656037)
	for _, perCh := range r.obs {
		for _, ring := range perCh {
			for _, o := range ring {
				h = (h ^ math.Float64bits(o.RawDB)) * 1099511628211
				h = (h ^ math.Float64bits(real(o.IQ[0]))) * 1099511628211
			}
		}
	}
	return h
}

func TestReplayRadioIsFixedAndReplaysInOrder(t *testing.T) {
	// The captures are part of the fixed world: every set-up, at every
	// seed, replays the same ones (the seed orders the visits).
	a, err := setupScan(300, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := setupScan(300, 3, 4)
	if radioDigest(a.radio) != radioDigest(b.radio) {
		t.Error("two set-ups produced different captures")
	}
	// The radio replays its ring in order and wraps.
	ch := a.camp.Channels[0]
	first, _ := a.radio.Capture(ch)
	for i := 1; i < 4; i++ {
		a.radio.Capture(ch) //nolint:errcheck // known channel
	}
	again, _ := a.radio.Capture(ch)
	if first.RawDB != again.RawDB {
		t.Error("the ring of 4 captures did not wrap to its first capture")
	}
}

func TestScanSeedOrdersTheSameScans(t *testing.T) {
	run := func(seed int64) *result {
		res, err := runScan(seed, 0.05, false, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(7), run(7), run(8)
	digest := func(r *result) string { return r.Checks[0].Detail }
	if digest(a) != digest(b) {
		t.Errorf("the same seed made different decisions:\n%s\n%s", digest(a), digest(b))
	}
	if digest(a) == digest(c) {
		t.Error("seeds 7 and 8 visited the places in the same order")
	}
	// Every seed runs the same scans, so decision quality does not move.
	for _, name := range []string{"core.readings_per_decision", "core.converged_share"} {
		if a.Metrics[name].Value != c.Metrics[name].Value {
			t.Errorf("%s differs between seeds: %v and %v", name, a.Metrics[name].Value, c.Metrics[name].Value)
		}
	}
}

func TestPromDeltaAgainstCapturedSample(t *testing.T) {
	data, err := os.ReadFile("testdata/metrics_sample.txt")
	if err != nil {
		t.Fatal(err)
	}
	before, err := parseProm(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`waldo_http_request_seconds_sum{route="/v1/retrain"}`]; got != 0.006352297 {
		t.Errorf("retrain sum = %v", got)
	}
	if got := before[`waldo_http_request_seconds_bucket{route="/v1/retrain",le="0.009999999999999998"}`]; got != 1 {
		t.Errorf("bucket with an exemplar parsed as %v, want 1", got)
	}
	if got := before["waldo_geoindex_rebuilds_total"]; got != 9 {
		t.Errorf("unlabelled counter = %v, want 9", got)
	}
	later := strings.NewReplacer(
		`waldo_http_request_seconds_sum{route="/v1/upload/batch"} 0`, `waldo_http_request_seconds_sum{route="/v1/upload/batch"} 0.5`,
		`waldo_http_request_seconds_count{route="/v1/upload/batch"} 0`, `waldo_http_request_seconds_count{route="/v1/upload/batch"} 1000`,
		`waldo_wal_fsync_seconds_count{store="46/1"} 1`, `waldo_wal_fsync_seconds_count{store="46/1"} 11`,
		`waldo_wal_fsync_seconds_count{store="47/1"} 2`, `waldo_wal_fsync_seconds_count{store="47/1"} 7`,
		`waldo_dbserver_model_cache_total{outcome="hit"} 0`, `waldo_dbserver_model_cache_total{outcome="hit"} 30`,
	).Replace(string(data))
	after, err := parseProm(strings.NewReader(later))
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{}
	d.add(before, after)
	if got := d.mean("waldo_http_request_seconds", `route="/v1/upload/batch"`); math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("upload batch mean = %v s, want 0.0005", got)
	}
	if got := d.count("waldo_wal_fsync_seconds"); got != 15 {
		t.Errorf("fsyncs over both stores = %v, want 15", got)
	}
	if got := d.sum("waldo_dbserver_model_cache_total", `outcome="hit"`); got != 30 {
		t.Errorf("cache hits = %v, want 30", got)
	}
	if got := d.mean("waldo_http_request_seconds", `route="/v1/retrain"`); !math.IsNaN(got) {
		t.Errorf("mean over a window without observations = %v, want NaN", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, utime 1234 and stime 66 ticks.
	line := "4242 (waldo (srv) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 66 0 0 20 0 9 0 100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage parsed")
	}
	hwm, err := parseVmHWM("Name:\twaldo\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1000 kB\n")
	if err != nil || hwm != 2<<20 {
		t.Errorf("VmHWM = %d, %v; want 2 MiB", hwm, err)
	}
}

func TestPercentileRule(t *testing.T) {
	for n, want := range map[int]float64{30: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 12000: 95} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Error("p99 needs exactly 1000 samples for 10 beyond it")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if percentile(xs, 50) != 50 || percentile(xs, 95) != 95 || percentile(xs, 100) != 100 {
		t.Errorf("nearest-rank percentiles of 1..100 = %v %v %v", percentile(xs, 50), percentile(xs, 95), percentile(xs, 100))
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	if got := quartileSpread(xs[:10]); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{ID: 1, StartNS: 0, EndNS: 100}
	// Two overlapping legs and one separate: the union covers 10..50 and 60..70.
	kids := []span{{StartNS: 10, EndNS: 40}, {StartNS: 30, EndNS: 50}, {StartNS: 60, EndNS: 70}}
	if got := selfNS(parent, kids); got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
	// A child that outlives its parent is charged only for the overlap.
	if got := selfNS(parent, []span{{StartNS: 90, EndNS: 150}}); got != 90 {
		t.Errorf("self with an overhanging child = %d, want 90", got)
	}
	tr := newTracer()
	root := tr.begin("root", 0, 1)
	leg := tr.begin("leg", root, 1)
	tr.end(leg)
	tr.end(root)
	total, self := tr.durations()
	if len(total["root"]) != 1 || self["root"][0] != total["root"][0]-total["leg"][0] {
		t.Errorf("durations: total %v self %v", total, self)
	}
	tr.on = false
	if tr.begin("off", 0, 2) != 0 || len(tr.spans) != 2 {
		t.Error("a tracer that is off recorded a span")
	}
}

func TestCombineBestWindowThenMidmean(t *testing.T) {
	t0 := time.Unix(0, 0)
	// One window of four segments of 100 ops: 1 s, 4 s (a stall), 1 s,
	// 0.5 s (a lull); the SUT clock at index 1 ticks 10 ms per segment.
	// Two speed-reference samples of twice the nominal duration were
	// taken in the second segment: the host ran this window at half speed.
	w := &window{refs: []time.Duration{2 * refNominal, 2 * refNominal}, refTime: 4 * refNominal}
	for i, at := range []time.Duration{0, time.Second, 5*time.Second + 4*refNominal, 6*time.Second + 4*refNominal, 6500*time.Millisecond + 4*refNominal} {
		m := mark{at: t0.Add(at), op: 100 * i, cpu: []time.Duration{time.Duration(i) * time.Second, time.Duration(i) * 10 * time.Millisecond}}
		if i >= 2 {
			m.ref = 4 * refNominal
			m.cpu[0] += 4 * refNominal
		}
		w.marks = append(w.marks, m)
	}
	lat := func(from, to int) samples { return samples{time.Duration(from+1) * time.Millisecond, time.Millisecond} }
	stalled := w.finish(lat)
	if stalled.slowdown != 2 || stalled.elapsed != 6500*time.Millisecond {
		t.Fatalf("slowdown %v, elapsed %v; want 2 and 6.5s", stalled.slowdown, stalled.elapsed)
	}
	if s := stalled.segs[1]; len(stalled.segs) != 4 || s.ops != 100 || s.wall != 4*time.Second || s.cpu[0] != time.Second || s.cpu[1] != 10*time.Millisecond {
		t.Fatalf("the reference samples were not taken out of segment 1: %+v", s)
	}
	if got := stalled.segs[2].latMS; len(got) != 2 || got[0] != 1 || got[1] != 201 {
		t.Errorf("segment latencies = %v, want ascending [1 201]", got)
	}
	// A second window on a quiet host, without the stall and the lull.
	steady := timedWindow{slowdown: 1}
	for k := 0; k < 4; k++ {
		steady.segs = append(steady.segs, segment{ops: 100, wall: time.Second, cpu: []time.Duration{0, 30 * time.Millisecond}})
	}
	windows := []timedWindow{stalled, steady}
	// At quiet-machine speed the stalled window ran 200, 50, 200, 400
	// ops/s; best of the two per segment 200, 100, 200, 400; midmean 200.
	if got := combine(windows, false, segment.opsPerSecond); got != 200 {
		t.Errorf("ops/s = %v, want 200", got)
	}
	// CPU per op: the stalled window's 100 us / 2 beats the steady 300.
	if got := combine(windows, true, func(s segment) float64 { return s.cpuPerOpUS(1, 2) }); got != 50 {
		t.Errorf("cpu per op = %v us, want 50", got)
	}
	if got := hostSlowdown(windows); got != 1 {
		t.Errorf("host slowdown = %v, want the lower median 1", got)
	}
	if got := midmean([]float64{1, 2, 3, 4, 5, 6, 7, 100}); got != 4.5 {
		t.Errorf("midmean = %v, want 4.5", got)
	}
	if !boundary(500, 500, 800) || !boundary(600, 500, 800) || boundary(601, 500, 800) {
		t.Error("800 ops from op 500 should open a segment every 100 ops")
	}
	if !refDue(500, 500, 4800) || !refDue(600, 500, 4800) || refDue(601, 500, 4800) || !refDue(7, 0, 36) {
		t.Error("a window takes refSamplesPerWindow evenly spaced samples, or one per op when it has fewer ops")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{1.0}, []float64{1.2}, "ok"},
		{lower, []float64{1.0}, []float64{1.3}, "worse"},
		{lower, []float64{1.0}, []float64{0.5}, "ok"},
		{higher, []float64{100}, []float64{70}, "worse"},
		{higher, []float64{100}, []float64{130}, "ok"},
		{lower, []float64{1.0, 1.4, 0.7, 1.1, 1.8}, []float64{1.0, 1.0, 1.0, 1.0, 1.0}, "unresolved"},
		{lower, []float64{1.0, 1.01, 0.99, 1.0}, []float64{1.3, 1.31, 1.29, 1.3}, "worse"},
	} {
		if _, _, _, _, got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.spec.Name, c.a, c.b, got, c.want)
		}
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json this package must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v != defaultSeconds %v", doc.RunSeconds, float64(defaultSeconds))
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the spec tables %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, s := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec %+v", i, got, s)
		}
	}
	for i, s := range perLayer {
		if got := doc.PerLayer[i]; got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, spec %+v", i, got, s)
		}
	}
}

// The benchmark may import the system's packages only: the harnesses
// ROADMAP plans to collapse must be free to change without changing it.
func TestImportGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, banned := range []string{"/internal/benchharness", "/internal/e2e", "/cmd/"} {
				if strings.Contains(path, banned) {
					t.Errorf("%s imports %s", f, path)
				}
			}
		}
	}
}

// deviceLayerMetrics are the per-layer names each in-process workload
// must emit when traced.
var deviceLayerMetrics = map[string][]string{
	wlScan: {"scan_p50_us", "dsp.power_spectrum_us", "features.from_observation_us", "features.from_observation_allocs",
		"core.detector_offer_ns", "core.detector_decide_us", "core.classify_us", "core.readings_per_decision",
		"core.converged_share", "core.false_safe_share", "core.false_unsafe_share", "bench.trace_overhead_share"},
	wlTrain: {"train_p50_ms", "ml.kmeans_ms", "ml.svm_fit_ms", "ml.svm_predict_ns", "ml.nb_fit_ms", "dataset.label_ms",
		"core.build_model_svm_ms", "core.build_model_nb_ms", "core.build_model_allocs", "bench.trace_overhead_share"},
}

func TestSmokeDeviceWorkloads(t *testing.T) {
	for wl, run := range map[string]func() (*result, error){
		wlScan:  func() (*result, error) { return runScan(3, 0.05, true, 0.01) },
		wlTrain: func() (*result, error) { return runTrain(3, 0.05, true, 0.01) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		want := deviceLayerMetrics[wl]
		for _, s := range endToEnd {
			want = append(want, s.Name)
		}
		for _, name := range want {
			m, ok := res.Metrics[name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s missing or not finite (%v)", wl, name, m)
			}
		}
		for name := range res.Metrics {
			if strings.HasPrefix(name, "cluster.") || strings.HasPrefix(name, "dbserver.") || strings.HasPrefix(name, "wal.") {
				t.Errorf("%s emitted %s, a layer it bypasses", wl, name)
			}
		}
		if res.Ops.Failed != 0 || len(res.spans) == 0 {
			t.Errorf("%s: %d failed ops, %d spans", wl, res.Ops.Failed, len(res.spans))
		}
		for _, c := range res.Checks {
			// The safety limit is a statement about the paper-scale run;
			// at 1/100 size only the structural checks must hold.
			if !c.OK && c.Name != "false_safe_within_table1_regime" {
				t.Errorf("%s: check %s failed: %s", wl, c.Name, c.Detail)
			}
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
			t.Fatalf("%s: driver line: %v", wl, err)
		}
		if len(line.Metrics) != len(perLayer) || line.Attempted < 1 {
			t.Errorf("%s: traced driver line has %d metrics, want all %d per-layer ones", wl, len(line.Metrics), len(perLayer))
		}
	}
}
