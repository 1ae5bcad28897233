package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, one line per
// sample, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make(map[string]*family, len(names))
	for _, n := range names {
		fams[n] = r.families[n]
	}
	r.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)

		f.mu.Lock()
		keys := make([]string, 0, len(f.instances))
		for k := range f.instances {
			keys = append(keys, k)
		}
		insts := make(map[string]any, len(keys))
		for _, k := range keys {
			insts[k] = f.instances[k]
		}
		f.mu.Unlock()
		sort.Strings(keys)

		for _, k := range keys {
			labels := labelString(f.labelNames, k)
			switch m := insts[k].(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, m.Value())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labels, formatFloat(m.Value()))
			case *Histogram:
				writeHistogram(bw, f.name, f.labelNames, k, m.Snapshot())
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, name string, labelNames []string, key string, s HistogramSnapshot) {
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := formatFloat(bound)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelStringExtra(labelNames, key, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelStringExtra(labelNames, key, "le", "+Inf"), s.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labelNames, key), formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labelNames, key), s.Count)
}

// labelString renders {a="x",b="y"} (empty string when no labels).
func labelString(names []string, key string) string {
	return labelStringExtra(names, key, "", "")
}

func labelStringExtra(names []string, key, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	if len(names) > 0 {
		values := strings.Split(key, "\x00")
		for i, n := range names {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(n)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(values[i]))
			sb.WriteByte('"')
		}
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text format — mount it at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
