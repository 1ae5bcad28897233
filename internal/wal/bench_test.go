package wal

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkAppendGroupCommit measures the request-path cost of one
// journal append: framing + enqueue, never an fsync (the flusher batches
// those in the background). This is the latency a durable upload adds
// before the handler acknowledges.
func BenchmarkAppendGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s, _, err := OpenStore(b.TempDir(), testCh, testKind, StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rs := testReadings(0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AppendReadings(context.Background(), rs)
			}
			b.StopTimer()
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAppendDurable measures the full durability round trip —
// append then wait for the group commit's fsync — under parallel
// appenders sharing flushes. This is what a caller that needs
// acknowledged durability (not the upload path) would pay.
func BenchmarkAppendDurable(b *testing.B) {
	s, _, err := OpenStore(b.TempDir(), testCh, testKind, StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rs := testReadings(0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.AppendReadings(context.Background(), rs)
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplay measures recovery speed per record. The allocation
// budget is pinned: replay must decode into the recovered slice (amortized
// growth only), never allocate per record — a regression here multiplies
// directly into restart time on big stores.
func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	s, _, err := OpenStore(dir, testCh, testKind, StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const records = 2000
	for i := 0; i < records; i++ {
		s.AppendReadings(context.Background(), testReadings(i, 1))
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, rec, err := OpenStore(dir, testCh, testKind, StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Readings.Len() != records {
			b.Fatalf("recovered %d readings", rec.Readings.Len())
		}
		s2.Close()
	}
	b.StopTimer()
	// ~0.1 allocs/record: segment reads, log-open bookkeeping, and
	// amortized growth of the recovered slice — but nothing per record.
	if maxAllocs := float64(records) / 10; float64(b.N) > 0 {
		if perOp := float64(testing.AllocsPerRun(1, func() {
			s2, rec, err := OpenStore(dir, testCh, testKind, StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if rec.Readings.Len() != records {
				b.Fatal("short recovery")
			}
			s2.Close()
		})); perOp > maxAllocs {
			b.Fatalf("replay of %d records allocates %.0f times, budget %.0f", records, perOp, maxAllocs)
		}
	}
}
