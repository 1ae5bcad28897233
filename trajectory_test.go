package waldo

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// trajectoryLine is one verdict of scripts/bench_pairs.sh in
// TRAJECTORY.jsonl. Backfilled lines were transcribed from CHANGES.md and
// carry what the prose recorded: the PR, no tree hash or nproc, and Q1–Q3
// only where it was given (the distance always), rounded as written, so
// Q3 − Q1 is held to the distance within a thousandth of the quartiles.
type trajectoryLine struct {
	PR         int                         `json:"pr,omitempty"`
	Backfilled bool                        `json:"backfilled"`
	Parent     string                      `json:"parent"`
	Tree       *string                     `json:"tree"`
	Workload   string                      `json:"workload"`
	Seed       int64                       `json:"seed"`
	Pairs      int                         `json:"pairs"`
	NProc      *int                        `json:"nproc"`
	Metrics    map[string]trajectoryMetric `json:"metrics"`
	Digests    *struct {
		Parent string `json:"parent"`
		Change string `json:"change"`
	} `json:"digests,omitempty"`
}

type trajectoryMetric struct {
	ParentMedian float64  `json:"parent_median"`
	ChangeMedian float64  `json:"change_median"`
	Won          int      `json:"won"`
	ParentQ1     *float64 `json:"parent_q1"`
	ParentQ3     *float64 `json:"parent_q3"`
	ParentIQR    float64  `json:"parent_iqr"`
	Verdict      string   `json:"verdict"`
}

var (
	hexSha         = regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	treeHash       = regexp.MustCompile(`^[0-9a-f]{40}$`)
	benchWorkloads = map[string]bool{"ingest_single": true, "ingest_cluster": true, "query_mixed": true, "wsd_scan": true, "train": true}
	gatedMetrics   = map[string]bool{"setup_s": true, "ops_per_s": true, "op_p50_ms": true, "op_tail_ms": true, "sut_cpu_us_per_op": true}
	pairsVerdicts  = map[string]bool{"claim holds": true, "no claim": true, "would hold, but a claim needs 10 pairs": true}
)

// layerLine is one run of scripts/layers.sh: each layer benchmark's
// ns/op, allocs/op and, where it reports it, cpu-ns/op over count runs
// at each -cpu value.
type layerLine struct {
	Kind       string `json:"kind"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
	NProc      int    `json:"nproc"`
	Count      int    `json:"count"`
	Benchmarks []struct {
		Pkg      string     `json:"pkg"`
		Name     string     `json:"name"`
		CPU      int        `json:"cpu"`
		N        int        `json:"n"`
		Runs     int        `json:"runs"`
		NsOp     *layerStat `json:"ns_op"`
		CPUNsOp  *layerStat `json:"cpu_ns_op"`
		AllocsOp *layerStat `json:"allocs_op"`
	} `json:"benchmarks"`
	Ratios []struct {
		Name  string  `json:"name"`
		CPU   int     `json:"cpu"`
		Value float64 `json:"value"`
	} `json:"ratios"`
	Failed []string `json:"failed"`
}

type layerStat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// checkLayerLine holds a layer line to its schema: a commit and the
// measured tree, every benchmark measured at a -cpu value on at most
// count runs, with ns/op and allocs/op, and min ≤ median ≤ max.
func checkLayerLine(raw []byte) error {
	var l layerLine
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return fmt.Errorf("not the layer schema: %v", err)
	}
	switch {
	case l.Kind != "layer" || !hexSha.MatchString(l.Commit) || !treeHash.MatchString(l.Tree):
		return fmt.Errorf("kind %q, commit %q, tree %q", l.Kind, l.Commit, l.Tree)
	case l.NProc < 1 || l.Count < 1 || len(l.Benchmarks) == 0 || l.Failed == nil:
		return fmt.Errorf("nproc %d, count %d, %d benchmarks, failed %v", l.NProc, l.Count, len(l.Benchmarks), l.Failed)
	}
	for _, b := range l.Benchmarks {
		if !strings.HasPrefix(b.Pkg, "internal/") || !strings.HasPrefix(b.Name, "Benchmark") || b.CPU < 1 || b.N < 1 || b.Runs < 1 || b.Runs > l.Count {
			return fmt.Errorf("benchmark %s %s at -cpu %d: %d iterations, %d runs of %d", b.Pkg, b.Name, b.CPU, b.N, b.Runs, l.Count)
		}
		if b.NsOp == nil || b.AllocsOp == nil {
			return fmt.Errorf("%s at -cpu %d: no ns/op or allocs/op", b.Name, b.CPU)
		}
		for _, st := range []*layerStat{b.NsOp, b.CPUNsOp, b.AllocsOp} {
			if st != nil && !(0 <= st.Min && st.Min <= st.Median && st.Median <= st.Max) {
				return fmt.Errorf("%s at -cpu %d: min %v, median %v, max %v", b.Name, b.CPU, st.Min, st.Median, st.Max)
			}
		}
	}
	for _, r := range l.Ratios {
		if r.Name == "" || r.CPU < 1 || !(r.Value > 0) || math.IsInf(r.Value, 0) {
			return fmt.Errorf("ratio %q at -cpu %d: %v", r.Name, r.CPU, r.Value)
		}
	}
	return nil
}

// checkTrajectoryLine parses one line and holds it to the schema and a
// "claim holds" verdict to the pairs rule: at least 10 pairs, at least
// nine tenths of them won, and medians further apart than the parent's
// Q1–Q3. A line of kind "layer" is held to checkLayerLine instead.
func checkTrajectoryLine(raw []byte) error {
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &kind); err == nil && kind.Kind == "layer" {
		return checkLayerLine(raw)
	}
	var l trajectoryLine
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return fmt.Errorf("not the trajectory schema: %v", err)
	}
	switch {
	case !hexSha.MatchString(l.Parent):
		return fmt.Errorf("parent %q is not a commit sha", l.Parent)
	case !benchWorkloads[l.Workload]:
		return fmt.Errorf("workload %q is not one of BENCHMARK.json's", l.Workload)
	case l.Pairs < 1 || l.Seed < 0:
		return fmt.Errorf("%d pairs at seed %d", l.Pairs, l.Seed)
	case len(l.Metrics) == 0:
		return fmt.Errorf("no metric")
	case l.Backfilled != (l.PR > 0):
		return fmt.Errorf("backfilled %v with pr %d: a backfilled line names its PR, a live one does not", l.Backfilled, l.PR)
	}
	if !l.Backfilled {
		if l.Tree == nil || !treeHash.MatchString(*l.Tree) || l.NProc == nil || *l.NProc < 1 {
			return fmt.Errorf("a live line needs the change's tree hash and nproc")
		}
		if l.Workload == "wsd_scan" && (l.Digests == nil || l.Digests.Parent == "" || l.Digests.Change == "") {
			return fmt.Errorf("a live wsd_scan line needs both sides' decision digests")
		}
	}
	for name, m := range l.Metrics {
		if !gatedMetrics[name] {
			return fmt.Errorf("%s is not a gated metric", name)
		}
		if !pairsVerdicts[m.Verdict] {
			return fmt.Errorf("%s: verdict %q", name, m.Verdict)
		}
		if m.Won < 0 || m.Won > l.Pairs || m.ParentIQR < 0 {
			return fmt.Errorf("%s: won %d of %d pairs, parent quartile distance %v", name, m.Won, l.Pairs, m.ParentIQR)
		}
		if (m.ParentQ1 == nil) != (m.ParentQ3 == nil) || (m.ParentQ1 == nil && !l.Backfilled) {
			return fmt.Errorf("%s: parent Q1 and Q3 go together, and a live line has both", name)
		}
		if m.ParentQ1 != nil {
			q1, q3 := *m.ParentQ1, *m.ParentQ3
			if q1 > q3 || math.Abs(q3-q1-m.ParentIQR) > 1e-3*math.Max(math.Abs(q1), math.Abs(q3)) {
				return fmt.Errorf("%s: parent Q1–Q3 %v–%v against a quartile distance of %v", name, q1, q3, m.ParentIQR)
			}
		}
		if m.Verdict == "claim holds" {
			if l.Pairs < 10 || 10*m.Won < 9*l.Pairs || math.Abs(m.ChangeMedian-m.ParentMedian) <= m.ParentIQR {
				return fmt.Errorf("%s: claim holds on %d of %d pairs won, medians %v -> %v against a parent quartile distance of %v",
					name, m.Won, l.Pairs, m.ParentMedian, m.ChangeMedian, m.ParentIQR)
			}
		}
	}
	return nil
}

// TestTrajectory holds every committed verdict to the schema and the
// pairs rule, and the rule itself to three lines it must refuse.
func TestTrajectory(t *testing.T) {
	f, err := os.Open("TRAJECTORY.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var n, live int
	for sc.Scan() {
		n++
		if err := checkTrajectoryLine(sc.Bytes()); err != nil {
			t.Errorf("TRAJECTORY.jsonl line %d: %v", n, err)
		}
		if bytes.Contains(sc.Bytes(), []byte(`"backfilled":false`)) {
			live++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 || live == 0 {
		t.Errorf("%d lines, %d of them live: the trajectory holds no measured verdict", n, live)
	}

	const good = `{"parent":"2540d8b90c0bd46fb409353590ff2002f388b011","tree":"0123456789abcdef0123456789abcdef01234567","workload":"train","seed":1,"pairs":%d,"nproc":2,"backfilled":false,` +
		`"metrics":{"op_p50_ms":{"parent_median":30,"change_median":%v,"won":%d,"parent_q1":29,"parent_q3":31,"parent_iqr":2,"verdict":"claim holds"}}}`
	if err := checkTrajectoryLine([]byte(fmt.Sprintf(good, 10, 21, 9))); err != nil {
		t.Errorf("a claim the rule supports was refused: %v", err)
	}
	for _, bad := range []struct {
		why          string
		pairs, won   int
		changeMedian float64
	}{
		{"fewer than 10 pairs", 9, 9, 21},
		{"fewer than 9 of 10 won", 10, 8, 21},
		{"a median gap inside the parent's quartile distance", 10, 10, 28.5},
	} {
		if checkTrajectoryLine([]byte(fmt.Sprintf(good, bad.pairs, bad.changeMedian, bad.won))) == nil {
			t.Errorf("a claim on %s was accepted", bad.why)
		}
	}

	const layer = `{"kind":"layer","commit":"2540d8b90c0bd46fb409353590ff2002f388b011","tree":"0123456789abcdef0123456789abcdef01234567","nproc":2,"count":5,` +
		`"benchmarks":[{"pkg":"internal/core","name":"BenchmarkMetroRebuild/warm","cpu":2,"n":10,"runs":5,"ns_op":{"median":%v,"min":2.1e+07,"max":2.6e+07},"allocs_op":{"median":432,"min":432,"max":432}}],` +
		`"ratios":[{"name":"upload_frame_gateway_over_direct","cpu":1,"value":1.6}],"failed":[]}`
	if err := checkTrajectoryLine([]byte(fmt.Sprintf(layer, 2.4e7))); err != nil {
		t.Errorf("a layer line was refused: %v", err)
	}
	if checkTrajectoryLine([]byte(fmt.Sprintf(layer, 2e7))) == nil {
		t.Errorf("a layer line with a median under its min was accepted")
	}
}
