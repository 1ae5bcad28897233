package telemetry

import (
	"context"
	"testing"
)

// The instrumentation budget: counters and histograms stay on by default
// in the dbserver request path and the detector loop, so the per-op cost
// must stay well under ~100 ns (see package comment). Run with:
//
//	go test -bench . -benchmem ./internal/telemetry/
func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.Counter("bench_ops_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := New()
	c := r.Counter("bench_ops_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	r := New()
	g := r.Gauge("bench_level", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("bench_lat_seconds", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-4)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := New()
	h := r.Histogram("bench_lat_seconds", "", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-4)
			i++
		}
	})
}

// BenchmarkCounterLookup measures the anti-pattern (per-op registry
// lookup) to document why handles should be held.
func BenchmarkCounterLookup(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("bench_ops_total", "", "route", "/v1/model").Inc()
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// Span hot path. Metric-only spans ride the WAL append and route-sample
// paths on every request, so StartSpanCtx/End must not rebuild path strings
// or histogram lookups per call — that's what the spanNode interning and
// the span pool buy.
func BenchmarkSpanStartEnd(b *testing.B) {
	r := New()
	r.StartSpanCtx(context.Background(), "wal/append").End() // intern the node up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StartSpanCtx(context.Background(), "wal/append").End()
	}
}

func BenchmarkSpanChildStartEnd(b *testing.B) {
	r := New()
	sp := r.StartSpanCtx(context.Background(), "retrain")
	defer sp.End()
	sp.Child("build").End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Child("build").End()
	}
}

// TestSpanAllocBudget is the enforced ceiling behind the benchmarks
// above: a steady-state metric-only span costs zero heap allocations
// (pooled span, interned node, no attrs), and a traced span stays within
// a small constant for its recorded SpanData. A regression here —
// rebuilding the slash-joined path, losing the pool, boxing in the
// histogram — fails the test, not just a benchmark nobody reran.
func TestSpanAllocBudget(t *testing.T) {
	r := New()
	r.StartSpanCtx(context.Background(), "wal/append").End() // warm the intern tree + pool

	if avg := testing.AllocsPerRun(200, func() {
		r.StartSpanCtx(context.Background(), "wal/append").End()
	}); avg > 0 {
		t.Errorf("metric-only StartSpanCtx/End allocates %.1f objects/op, budget 0", avg)
	}

	parent := r.StartSpanCtx(context.Background(), "retrain")
	parent.Child("build").End()
	if avg := testing.AllocsPerRun(200, func() {
		parent.Child("build").End()
	}); avg > 0 {
		t.Errorf("metric-only Child/End allocates %.1f objects/op, budget 0", avg)
	}
	parent.End()

	// Traced spans genuinely allocate — the Trace, its span list, the
	// retained TraceData — 4 objects for a root+child pair; the IDs stay
	// binary until a /debug/traces read renders them (12 objects when
	// every End rendered its hex). The budget holds that constant:
	// per-trace costs, never per-call path strings, hex or histogram
	// re-lookups.
	const tracedBudget = 4
	if avg := testing.AllocsPerRun(200, func() {
		sp := r.StartTrace("/v1/readings", SpanContext{})
		sp.Child("append").End()
		sp.End()
	}); avg > tracedBudget {
		t.Errorf("traced root+child costs %.1f objects/op, budget %d", avg, tracedBudget)
	}
}
