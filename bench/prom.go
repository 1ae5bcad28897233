package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series name
// with its label set, exactly as printed (`name{label="v"}`), to value.
type promSample map[string]float64

// parseProm reads the text exposition format (version 0.0.4). Comment
// and blank lines are skipped; exemplars after " # " and optional
// timestamps are ignored. Histogram buckets are kept like any series.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The series ends at the last '}' when labelled (label values
		// may hold spaces), else at the first space.
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
			if cut < 0 {
				return nil, fmt.Errorf("prom: no value in %q", line)
			}
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q", line)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses one process's /metrics.
func scrape(baseURL string) (promSample, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", baseURL, resp.Status)
	}
	return parseProm(resp.Body)
}

// promDelta is after − before per series, summed over several processes
// by add. A series absent before counts from zero.
type promDelta map[string]float64

func (d promDelta) add(before, after promSample) {
	for k, v := range after {
		d[k] += v - before[k]
	}
}

// sum totals every series of the given metric name whose label set
// contains all of the given `key="value"` fragments.
func (d promDelta) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range d {
		series, rest, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// count is the observations a histogram family took in over the window.
func (d promDelta) count(name string, labels ...string) float64 {
	return d.sum(name+"_count", labels...)
}

// mean is Δsum/Δcount of a histogram family in seconds; NaN when the
// window saw no observation.
func (d promDelta) mean(name string, labels ...string) float64 {
	return ratio(d.sum(name+"_sum", labels...), d.count(name, labels...))
}
