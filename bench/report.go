package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Workload names are fixed: later issues cite them.
const (
	wlIngestSingle  = "ingest_single"
	wlIngestCluster = "ingest_cluster"
	wlQueryMixed    = "query_mixed"
	wlScan          = "wsd_scan"
	wlTrain         = "train"
)

var workloadNames = []string{wlIngestSingle, wlIngestCluster, wlQueryMixed, wlScan, wlTrain}

// metricSpec declares one metric the benchmark can emit. BENCHMARK.json
// repeats these tables; TestBenchmarkJSONMatchesSpecs keeps them equal.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
}

// endToEnd are the metrics every workload reports with tracing off. An
// "op" is one entry of the workload's seed-generated op list: an upload,
// a mixed query op, one 9-channel scan, one 9-channel rebuild.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"sut_cpu_us_per_op", "us", "lower", 0.25},
}

// perLayer are the metrics of single layers, plus the client-observed
// figures that exist on some workloads only. A workload emits the ones
// its layers produce; the driver's result line zero-fills the rest.
var perLayer = []metricSpec{
	// client-observed, per op class
	{"ingest_readings_per_s", "1/s", "higher", 0},
	{"upload_p50_ms", "ms", "lower", 0},
	{"upload_p99_ms", "ms", "lower", 0},
	{"model_fetch_p50_ms", "ms", "lower", 0},
	{"availability_p50_ms", "ms", "lower", 0},
	{"route_p50_ms", "ms", "lower", 0},
	{"model_fresh_p50_ms", "ms", "lower", 0},
	{"scan_p50_us", "us", "lower", 0},
	{"scan_p99_us", "us", "lower", 0},
	{"train_p50_ms", "ms", "lower", 0},
	// cluster
	{"cluster.gateway_cpu_us_per_op", "us", "lower", 0},
	{"cluster.split_share", "share", "lower", 0},
	{"cluster.merge_share", "share", "lower", 0},
	{"cluster.proxy_errors", "count", "lower", 0},
	{"cluster.gateway_upload_us", "us", "lower", 0},
	{"cluster.gateway_upload_split_us", "us", "lower", 0},
	{"cluster.gateway_model_us", "us", "lower", 0},
	{"cluster.gateway_availability_us", "us", "lower", 0},
	{"cluster.gateway_availability_merge_us", "us", "lower", 0},
	{"cluster.gateway_route_us", "us", "lower", 0},
	{"cluster.gateway_upload_allocs", "count", "lower", 0},
	{"cluster.ring_owner_ns", "ns", "lower", 0},
	// dbserver
	{"dbserver.cpu_us_per_op", "us", "lower", 0},
	{"dbserver.peak_rss_mb", "MB", "lower", 0},
	{"dbserver.http_upload_batch_mean_us", "us", "lower", 0},
	{"dbserver.http_readings_mean_us", "us", "lower", 0},
	{"dbserver.http_model_mean_us", "us", "lower", 0},
	{"dbserver.http_availability_mean_us", "us", "lower", 0},
	{"dbserver.http_route_mean_us", "us", "lower", 0},
	{"dbserver.http_retrain_mean_ms", "ms", "lower", 0},
	{"dbserver.model_cache_hit_share", "share", "higher", 0},
	{"dbserver.model_304_share", "share", "higher", 0},
	{"dbserver.shed_total", "count", "lower", 0},
	{"dbserver.upload_batch_handler_us", "us", "lower", 0},
	{"dbserver.readings_handler_us", "us", "lower", 0},
	{"dbserver.model_handler_us", "us", "lower", 0},
	{"dbserver.availability_handler_us", "us", "lower", 0},
	{"dbserver.route_handler_us", "us", "lower", 0},
	{"dbserver.retrain_handler_ms", "ms", "lower", 0},
	{"dbserver.upload_batch_allocs", "count", "lower", 0},
	{"dbserver.readings_allocs", "count", "lower", 0},
	{"dbserver.model_allocs", "count", "lower", 0},
	// core, server side
	{"core.decode_frame_us", "us", "lower", 0},
	{"core.encode_frame_us", "us", "lower", 0},
	{"core.submit_us", "us", "lower", 0},
	{"core.submit_allocs", "count", "lower", 0},
	{"core.retrain_ms", "ms", "lower", 0},
	{"core.encode_model_us", "us", "lower", 0},
	{"core.decode_model_us", "us", "lower", 0},
	{"core.model_bytes", "B", "lower", 0},
	{"core.updater_rebuild_mean_ms", "ms", "lower", 0},
	// wal
	{"wal.fsyncs_per_kop", "count", "lower", 0},
	{"wal.fsync_mean_ms", "ms", "lower", 0},
	{"wal.append_mean_us", "us", "lower", 0},
	{"wal.bytes_per_reading", "B", "lower", 0},
	{"wal.snapshots", "count", "lower", 0},
	{"wal.disk_bytes_per_reading", "B", "lower", 0},
	{"wal.recovery_s", "s", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.sync_us", "us", "lower", 0},
	// geoindex
	{"geoindex.rebuilds", "count", "lower", 0},
	{"geoindex.rebuild_mean_ms", "ms", "lower", 0},
	{"geoindex.rebuild_coalesced", "count", "higher", 0},
	{"geoindex.lookup_ns", "ns", "lower", 0},
	{"geoindex.sample_route_us", "us", "lower", 0},
	{"geoindex.rebuild_ms", "ms", "lower", 0},
	{"geoindex.cells", "count", "higher", 0},
	// dsp, features, core device side
	{"dsp.power_spectrum_us", "us", "lower", 0},
	{"features.from_observation_us", "us", "lower", 0},
	{"features.from_observation_allocs", "count", "lower", 0},
	{"core.detector_offer_ns", "ns", "lower", 0},
	{"core.detector_decide_us", "us", "lower", 0},
	{"core.classify_us", "us", "lower", 0},
	{"core.readings_per_decision", "count", "lower", 0},
	{"core.converged_share", "share", "higher", 0},
	{"core.false_safe_share", "share", "lower", 0},
	{"core.false_unsafe_share", "share", "lower", 0},
	// ml, dataset, constructor
	{"ml.kmeans_ms", "ms", "lower", 0},
	{"ml.svm_fit_ms", "ms", "lower", 0},
	{"ml.svm_predict_ns", "ns", "lower", 0},
	{"ml.nb_fit_ms", "ms", "lower", 0},
	{"dataset.label_ms", "ms", "lower", 0},
	{"core.build_model_svm_ms", "ms", "lower", 0},
	{"core.build_model_nb_ms", "ms", "lower", 0},
	{"core.build_model_allocs", "count", "lower", 0},
	// the harness itself
	{"bench.loadgen_cpu_us_per_op", "us", "lower", 0},
	{"bench.loadgen_cpu_share", "share", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
	{"bench.host_slowdown", "ratio", "lower", 0},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

// metric is one reported number. N is the sample count behind a median
// or percentile; Note says which percentile a tail metric used.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// metricSet collects a workload's metrics by declared name.
type metricSet map[string]metric

var allSpecs = specByName(append(append([]metricSpec(nil), endToEnd...), perLayer...))

// put records a metric; the name must be declared in the spec tables so
// the output never drifts from BENCHMARK.json. Non-finite values (a ratio
// with an empty base) are dropped: absent, not zero-filled.
func (m metricSet) put(name string, v float64, n int, note string) {
	spec, ok := allSpecs[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = metric{Value: v, Unit: spec.Unit, N: n, Note: note}
}

func (m metricSet) set(name string, v float64) { m.put(name, v, 0, "") }

// ratio is a/b, NaN when the base is empty so put drops it.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// procInfo records how one SUT process ran.
type procInfo struct {
	Name       string `json:"name"`
	GOMAXPROCS string `json:"gomaxprocs"`
}

// opCounts reports ops attempted / succeeded / failed over the timed
// window; a non-2xx/304 reply or a transport error is a failed op and
// has no latency sample.
type opCounts struct {
	Warmup    int `json:"warmup"`
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// result is one workload run.
type result struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Traced    bool       `json:"traced"`
	Ops       opCounts   `json:"ops"`
	Clients   int        `json:"clients"`
	Processes []procInfo `json:"processes,omitempty"`
	Metrics   metricSet  `json:"metrics"`
	Checks    []check    `json:"checks"`
	Notes     []string   `json:"notes,omitempty"`
	// Windows holds every segment of every timed window: the raw
	// material of the gated figures.
	Windows []windowJSON `json:"windows,omitempty"`

	spans []span // the traced run's spans, for -trace-out
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Ops.Failed == 0
}

func (r *result) addCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// envInfo is recorded once per report.
type envInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GitCommit string `json:"git_commit"`
	Network   string `json:"network"`
}

// report is the -out file: everything one invocation measured.
type report struct {
	Schema  string   `json:"schema"`
	Env     envInfo  `json:"env"`
	Results []result `json:"results"`
}

const reportSchema = "waldo-bench/v1"

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// printResult prints every metric of one run by name with its unit, the
// end-to-end ones first, then the checks.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g clients=%d  ops: %d warm-up, %d attempted, %d succeeded, %d failed\n",
		r.Workload, r.Seed, r.Seconds, r.Clients, r.Ops.Warmup, r.Ops.Attempted, r.Ops.Succeeded, r.Ops.Failed)
	for _, p := range r.Processes {
		fmt.Fprintf(w, "   process %-14s GOMAXPROCS=%s\n", p.Name, p.GOMAXPROCS)
	}
	line := func(name string, m metric) {
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  (n=%d", m.N)
			if m.Note != "" {
				extra += ", " + m.Note
			}
			extra += ")"
		} else if m.Note != "" {
			extra = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "   %-40s %14.4f %-6s%s\n", name, m.Value, m.Unit, extra)
	}
	for _, s := range endToEnd {
		if m, ok := r.Metrics[s.Name]; ok {
			line(s.Name, m)
		}
	}
	var rest []string
	e2e := specByName(endToEnd)
	for name := range r.Metrics {
		if _, ok := e2e[name]; !ok {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name, r.Metrics[name])
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %-28s %s\n", status, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// driverLine renders the one-line JSON result the benchmark contract
// asks for: every end-to-end metric with tracing off, every per-layer
// metric with tracing on. A per-layer metric of a layer the workload
// bypasses reads 0 there (the contract wants every name on every run);
// the -out report leaves it out instead.
func driverLine(r *result) string {
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		r.correct(), max(r.Ops.Attempted, 1), r.Ops.Failed)
	for i, s := range specs {
		if i > 0 {
			b.WriteString(", ")
		}
		v, _ := json.Marshal(r.Metrics[s.Name].Value)
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, s.Name, v, s.Unit)
	}
	b.WriteString("}}")
	return b.String()
}
