package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/wsdetect/waldo/internal/dataset"
)

// seqReadings builds n valid channel-47 readings numbered from.. in Seq,
// so any reading's position in a store can be read off it.
func seqReadings(from, n int) []dataset.Reading {
	base, _ := synthReadings(1, 41)
	out := make([]dataset.Reading, n)
	for i := range out {
		out[i] = base[0]
		out[i].Seq = from + i
		out[i].TrueDBm = float64(from+i) / 8
	}
	return out
}

// TestReadingLogMatchesFlatSlice drives a ReadingLog and a plain slice
// with the same random appends — sizes chosen to land before, on and
// across chunk boundaries — and requires every derived view (the whole
// log at each step, every kind of prefix and tail) to read back exactly
// what the slice holds, including views captured many appends earlier.
func TestReadingLogMatchesFlatSlice(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 65, 500, chunkReadings - 1, chunkReadings, chunkReadings + 1, 2*chunkReadings + 17}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var log ReadingLog
		var flat []dataset.Reading
		type held struct {
			view ReadingView
			n    int
		}
		var views []held
		for step := 0; step < 24; step++ {
			n := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(3*chunkReadings/2)
			}
			batch := seqReadings(len(flat), n)
			if rng.Intn(2) == 0 {
				log.Append(batch)
			} else if rest, err := log.AppendWire(AppendReadingsWire(nil, batch)); err != nil || len(rest) != 0 {
				t.Fatalf("AppendWire: rest %d, err %v", len(rest), err)
			}
			flat = append(flat, batch...)
			if log.Len() != len(flat) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, log.Len(), len(flat))
			}
			v := log.View()
			views = append(views, held{v, len(flat)})

			cuts := []int{0, 1, len(flat) / 2, len(flat) - 1, len(flat), len(flat) + 5,
				chunkReadings - 1, chunkReadings, chunkReadings + 1, rng.Intn(len(flat) + 1)}
			for _, k := range cuts {
				if !viewHolds(v.Prefix(k), flat[:min(k, len(flat))]) {
					t.Fatalf("seed %d step %d: Prefix(%d) of %d differs from the flat slice", seed, step, k, len(flat))
				}
				if !viewHolds(v.Tail(k), flat[len(flat)-min(k, len(flat)):]) {
					t.Fatalf("seed %d step %d: Tail(%d) of %d differs from the flat slice", seed, step, k, len(flat))
				}
			}
			tail := v.Tail(chunkReadings + 9)
			if !sameReadings(tail.Flatten(), flat[len(flat)-tail.Len():]) || !sameReadings(tail.AppendTo(flat[:1:1])[1:], flat[len(flat)-tail.Len():]) {
				t.Fatalf("seed %d step %d: Flatten/AppendTo of a %d-reading tail differ from the flat slice", seed, step, tail.Len())
			}
			total := 0
			for _, c := range v.Chunks() {
				if len(c) == 0 || len(c) > chunkReadings || cap(c) != len(c) {
					t.Fatalf("seed %d step %d: chunk len %d cap %d", seed, step, len(c), cap(c))
				}
				total += len(c)
			}
			if total != len(flat) {
				t.Fatalf("seed %d step %d: chunks hold %d readings, want %d", seed, step, total, len(flat))
			}
		}
		// Every view taken along the way still reads the prefix it saw.
		for i, h := range views {
			if !viewHolds(h.view, flat[:h.n]) {
				t.Fatalf("seed %d: view %d (of %d readings) changed as the log grew to %d", seed, i, h.n, len(flat))
			}
		}
	}
}

// viewHolds reports whether v is exactly want, read run by run.
func viewHolds(v ReadingView, want []dataset.Reading) bool {
	if v.Len() != len(want) {
		return false
	}
	for _, c := range v.Chunks() {
		if len(c) > len(want) || !sameReadings(c, want[:len(c)]) {
			return false
		}
		want = want[len(c):]
	}
	return len(want) == 0
}

// sameReadings reports whether a and b hold the same readings, field for
// field (nil and empty alike).
func sameReadings(a, b []dataset.Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newStoreUpdater is an updater whose store alone is under test.
func newStoreUpdater(tb testing.TB) *Updater {
	tb.Helper()
	u, err := NewUpdater(UpdaterConfig{Constructor: ConstructorConfig{ClusterK: 2, Classifier: KindNB}})
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

// TestSubmitNeverCopiesTheStore pins the store's one rule from the
// allocator's side: accepting a million readings in upload-sized batches
// allocates about what the readings themselves occupy. A store that
// regrows by copying allocates several times that (5x at f6dee89).
func TestSubmitNeverCopiesTheStore(t *testing.T) {
	const n, batch = 1 << 20, 64
	u := newStoreUpdater(t)
	up := UploadBatch{Readings: seqReadings(0, batch), CISpanDB: 0.5}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n/batch; i++ {
		if err := u.Submit(up); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if u.Size() != n {
		t.Fatalf("store holds %d readings, want %d", u.Size(), n)
	}
	held := float64(n) * float64(unsafe.Sizeof(dataset.Reading{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.15*held {
		t.Errorf("accepting %d readings allocated %.0f bytes, %.2fx what they occupy (budget 1.15x)", n, got, got/held)
	}
}

// BenchmarkSubmitLargeStore is the per-upload cost of Submit on a store
// that already holds a million readings: it must not depend on that.
func BenchmarkSubmitLargeStore(b *testing.B) {
	u := newStoreUpdater(b)
	u.Bootstrap(seqReadings(0, 1<<20))
	up := UploadBatch{Readings: seqReadings(0, 14), CISpanDB: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := u.Submit(up); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreViewsStableUnderConcurrentGrowth runs every store reader
// against concurrent Submit (run it under -race): each captured view,
// checkpoint view, index window and Readings copy must be the exact
// prefix or tail of the store it was taken from, then and after the
// store has grown past it.
func TestStoreViewsStableUnderConcurrentGrowth(t *testing.T) {
	const batches, batch = 200, 100 // 20 000 readings: three chunks
	u := newStoreUpdater(t)
	boot, _ := synthReadings(400, 43)
	for i := range boot {
		boot[i].Seq = i
	}
	u.Bootstrap(boot)
	if _, err := u.Retrain(); err != nil {
		t.Fatal(err)
	}
	base := len(boot)

	// checkRun requires rs to be store positions from..from+len(rs).
	checkRun := func(what string, rs []dataset.Reading, from int) {
		for i := range rs {
			if rs[i].Seq != from+i {
				t.Errorf("%s: position %d holds reading %d", what, from+i, rs[i].Seq)
				return
			}
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		held  []ReadingView
		done  = make(chan struct{})
		spawn = func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
						f()
					}
				}
			}()
		}
	)
	keep := func(v ReadingView) {
		checkRun("view", v.Flatten(), 0)
		mu.Lock()
		if len(held) < 200 {
			held = append(held, v)
		}
		mu.Unlock()
	}
	spawn(func() { keep(u.View()) })
	spawn(func() {
		var v ReadingView
		u.Checkpoint(func(view ReadingView, _, trained int) {
			v = view
			if trained > view.Len() {
				t.Errorf("checkpoint: trained on %d of %d readings", trained, view.Len())
			}
		})
		keep(v)
	})
	spawn(func() {
		_, _, recent := u.IndexSnapshot(3000)
		if len(recent) > 0 {
			checkRun("index window", recent, recent[0].Seq)
		}
		if len(recent) > 3000 {
			t.Errorf("index window of %d readings, asked for 3000", len(recent))
		}
	})
	spawn(func() { checkRun("Readings", u.Readings(), 0) })
	spawn(func() {
		if _, err := u.Retrain(); err != nil {
			t.Error(err)
		}
		if m, v := u.Model(); m == nil || u.TrainedCount() > u.Size() || v < 1 {
			t.Errorf("model v%d trained on %d of %d", v, u.TrainedCount(), u.Size())
		}
	})

	for i := 0; i < batches; i++ {
		rs := seqReadings(base+i*batch, batch)
		if err := u.Submit(UploadBatch{Readings: rs, CISpanDB: 0.5}); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched() // let the readers in between appends
	}
	close(done)
	wg.Wait()

	final := u.Readings()
	checkRun("final store", final, 0)
	if len(final) != base+batches*batch {
		t.Fatalf("store holds %d readings, want %d", len(final), base+batches*batch)
	}
	for _, v := range held {
		if !viewHolds(v, final[:v.Len()]) {
			t.Fatalf("a view of %d readings changed as the store grew to %d", v.Len(), len(final))
		}
	}
	// RetrainAtCtx reads a prefix that ends inside an earlier chunk.
	_, version := u.Model()
	if err := u.RetrainAtCtx(context.Background(), version+1, chunkReadings+123); err != nil {
		t.Fatal(err)
	}
	if u.TrainedCount() != chunkReadings+123 {
		t.Errorf("RetrainAtCtx trained on %d, want %d", u.TrainedCount(), chunkReadings+123)
	}
}
