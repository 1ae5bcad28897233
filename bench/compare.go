package main

import (
	"fmt"
	"io"
	"math"
)

// side is one side of a comparison: every run of every listed report,
// grouped by workload.
type side struct {
	runs map[string][]result
}

func loadSide(paths []string) (*side, error) {
	s := &side{runs: map[string][]result{}}
	for _, p := range paths {
		rep, err := readReport(p)
		if err != nil {
			return nil, err
		}
		for _, r := range rep.Results {
			s.runs[r.Workload] = append(s.runs[r.Workload], r)
		}
	}
	return s, nil
}

// values collects one metric over a workload's runs.
func (s *side) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.runs[workload] {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedShare is failed ops over attempted ops across a workload's runs.
func (s *side) failedShare(workload string) (failed, attempted int) {
	for _, r := range s.runs[workload] {
		failed += r.Ops.Failed
		attempted += r.Ops.Attempted
	}
	return failed, attempted
}

// verdict classifies one workload × metric row. worseBy is how far b's
// median is from a's in the metric's bad direction, as a share of a's.
func verdict(spec metricSpec, a, b []float64) (medA, medB, worseBy, spread float64, status string) {
	medA = median(append([]float64(nil), a...))
	medB = median(append([]float64(nil), b...))
	worseBy = (medB - medA) / medA
	if spec.Better == "higher" {
		worseBy = -worseBy
	}
	spread = math.Max(spreadOrZero(a), spreadOrZero(b))
	switch {
	case spread > spec.Bound:
		status = "unresolved"
	case worseBy > spec.Bound:
		status = "worse"
	default:
		status = "ok"
	}
	return medA, medB, worseBy, spread, status
}

// spreadOrZero is the quartile spread of several runs; one run has none.
func spreadOrZero(xs []float64) float64 {
	if s := quartileSpread(xs); !math.IsNaN(s) {
		return s
	}
	return 0
}

// compareReports prints, per workload and end-to-end metric, both
// medians, the relative difference with its base, the bound and a
// verdict: ok, worse (b is past the bound in the bad direction), or
// unresolved (the run-to-run spread of either side is wider than the
// bound, so the row decides nothing). It reports whether any row is
// worse.
func compareReports(w io.Writer, aPaths, bPaths []string) (bool, error) {
	a, err := loadSide(aPaths)
	if err != nil {
		return false, err
	}
	b, err := loadSide(bPaths)
	if err != nil {
		return false, err
	}
	anyWorse, rows := false, 0
	for _, wl := range workloadNames {
		if len(a.runs[wl]) == 0 || len(b.runs[wl]) == 0 {
			continue
		}
		fa, na := a.failedShare(wl)
		fb, nb := b.failedShare(wl)
		fmt.Fprintf(w, "\n%s  (a: %d runs, %d of %d ops failed; b: %d runs, %d of %d ops failed)\n",
			wl, len(a.runs[wl]), fa, na, len(b.runs[wl]), fb, nb)
		for _, spec := range endToEnd {
			va, vb := a.values(wl, spec.Name), b.values(wl, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, worseBy, spread, status := verdict(spec, va, vb)
			rows++
			anyWorse = anyWorse || status == "worse"
			spreadText := "n/a (one run a side)"
			if len(va) > 1 || len(vb) > 1 {
				spreadText = fmt.Sprintf("%.1f%%", 100*spread)
			}
			fmt.Fprintf(w, "  %-18s a=%-12.4f b=%-12.4f %-4s b is %+.1f%% of a's %.4f %s, %s is better: worse by %+.1f%%, bound %.0f%%, spread %s  -> %s\n",
				spec.Name, medA, medB, spec.Unit, 100*(medB-medA)/medA, medA, spec.Unit, spec.Better, 100*worseBy, 100*spec.Bound, spreadText, status)
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("the two sides share no workload")
	}
	return anyWorse, nil
}
