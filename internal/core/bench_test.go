package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// BenchmarkBuildModelParallel measures the Model Constructor on a
// campaign-scale store (5,000 readings, K=12) with the training fan-out
// disabled and enabled. On a multi-core host workers=auto should build the
// same (bit-identical) model several times faster; on a single-core host
// the two are equivalent by construction. Every build clears the
// localities memo, so k-means' parallel path is measured too.
func BenchmarkBuildModelParallel(b *testing.B) {
	readings, labels := synthReadings(5000, 31)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=auto", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := ConstructorConfig{ClusterK: 12, Workers: bench.workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lastLocalities.Store(nil)
				if _, err := BuildModel(readings, labels, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkMetroRebuild is the train workload's op below the harness:
// Algorithm 1 and an SVM model for each of the nine metro channels, one
// worker. cold clears the localities memo before every build, which is
// the constructor without it; warm keeps it, as the workload does. small
// is warm on each channel's first 1 000 readings, query_mixed's bootstrap
// size, where a locality's fit is capped at 30 epochs. Each reports the
// process's CPU per op as cpu-ns/op, steadier than ns/op on a shared
// host.
func BenchmarkMetroRebuild(b *testing.B) {
	channels := metroCampaign(b)
	cfg := metroConstructor(KindSVM)
	for _, bench := range []struct {
		name     string
		cold     bool
		readings int
	}{{"cold", true, metroSamples}, {"warm", false, metroSamples}, {"small", false, 1000}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			cpu := selfCPU()
			for i := 0; i < b.N; i++ {
				for _, mc := range channels {
					readings := mc.readings[:bench.readings]
					labels, err := dataset.LabelReadings(readings, dataset.LabelConfig{})
					if err != nil {
						b.Fatal(err)
					}
					if bench.cold {
						lastLocalities.Store(nil)
					}
					if _, err := BuildModel(readings, labels, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(selfCPU()-cpu)/float64(b.N), "cpu-ns/op")
		})
	}
}

// BenchmarkRetrainConcurrentSubmit measures the upload path with and
// without a model rebuild in flight: the snapshot-retrain design means
// Submit+Model latency must not inflate while training runs, so the two
// sub-benchmarks should report near-identical ns/op.
//
// The store is bootstrapped large enough (50k readings) that one rebuild
// outlasts the measured window, and the rebuild sub-benchmark handshakes
// with the retrainer goroutine before starting the clock so a rebuild is
// provably in flight while Submit is timed (the rebuilds metric counts
// background rebuilds that completed during the run). Submitted batches
// rotate through a pre-generated pool so the store keeps realistic
// location diversity — repeating identical locations degrades
// Algorithm 1's hot-reading index into pile scans.
func BenchmarkRetrainConcurrentSubmit(b *testing.B) {
	const bootN = 50_000
	pool, _ := synthReadings(bootN+2000, 33)
	newUpdater := func(b *testing.B) (*Updater, []UploadBatch) {
		u, err := NewUpdater(UpdaterConfig{Constructor: ConstructorConfig{ClusterK: 8}})
		if err != nil {
			b.Fatal(err)
		}
		u.Bootstrap(pool[:bootN])
		if _, err := u.Retrain(); err != nil {
			b.Fatal(err)
		}
		batches := make([]UploadBatch, (len(pool)-bootN)/4)
		for i := range batches {
			lo := bootN + i*4
			batches[i] = UploadBatch{Readings: pool[lo : lo+4], CISpanDB: 0.5}
		}
		return u, batches
	}
	submitLoop := func(b *testing.B, u *Updater, batches []UploadBatch) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := u.Submit(batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
			u.Model()
		}
		b.StopTimer()
	}

	b.Run("idle", func(b *testing.B) {
		u, batches := newUpdater(b)
		submitLoop(b, u, batches)
	})
	b.Run("during-rebuild", func(b *testing.B) {
		u, batches := newUpdater(b)
		started := make(chan struct{})
		stop := make(chan struct{})
		var rebuilds atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				select {
				case <-stop:
					return
				default:
				}
				if first {
					close(started)
				}
				if _, err := u.Retrain(); err != nil {
					b.Error(err)
					return
				}
				rebuilds.Add(1)
				// Safety bound: stop relaunching once submits have grown
				// the store well past the bootstrap, so the final rebuild
				// the deferred Wait drains stays tractable.
				if u.Size() > 8*bootN {
					return
				}
			}
		}()
		<-started
		// Yield so the retrainer snapshots and enters the rebuild before
		// the clock starts.
		time.Sleep(20 * time.Millisecond)
		submitLoop(b, u, batches)
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(rebuilds.Load()), "rebuilds")
	})
}

// BenchmarkRetrainStoreScale charts one full relabel+rebuild against store
// size, the §3 Algorithm 1 pipeline cost the dbserver pays per version.
func BenchmarkRetrainStoreScale(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			readings, _ := synthReadings(n, 37)
			u, err := NewUpdater(UpdaterConfig{Constructor: ConstructorConfig{ClusterK: 12}})
			if err != nil {
				b.Fatal(err)
			}
			u.Bootstrap(readings)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := u.Retrain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectorThroughput measures the mobile hot path. offer: one
// capture offered to an unplaced streaming detector (the per-reading cost
// of Fig. 18). placed: one lean decision as a WSD makes it — Reset, At, Done
// before the first capture, offer until done, Decide — at a place whose
// locality the model classifies (not a constant one), on noisy captures
// in turn at the level of a NotSafe campaign reading there (the early stop
// rule stops the stream NotSafe), 10 dB under it (it stops Safe) and at
// the first level under it where the two §5 fallback points disagree
// until α is met (the stream converges); it reports the process's CPU
// time per decision too, as cpu-ns/op.
func BenchmarkDetectorThroughput(b *testing.B) {
	env, err := rfenv.BuildMetro(42)
	if err != nil {
		b.Fatal(err)
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: 600, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{Env: env, Route: route, Channels: []rfenv.Channel{47}, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	readings := camp.Readings(47, sensor.KindRTLSDR)
	labels, err := dataset.LabelReadings(readings, dataset.LabelConfig{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := BuildModel(readings, labels, ConstructorConfig{ClusterK: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("offer", func(b *testing.B) {
		det, err := NewDetector(model, DetectorConfig{MaxReadings: 64})
		if err != nil {
			b.Fatal(err)
		}
		sig := readings[0].Signal
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				det.Reset()
			}
			det.Offer(sig)
		}
		elapsed := time.Since(start)
		if b.N > 0 {
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/offer")
		}
	})
	b.Run("placed", func(b *testing.B) {
		det, err := NewDetector(model, DetectorConfig{MaxReadings: 64})
		if err != nil {
			b.Fatal(err)
		}
		var at dataset.Reading
		rng := rand.New(rand.NewSource(3))
		var rings [3][64]features.Signal
		fill := func(ring *[64]features.Signal, rss float64) {
			for i := range ring {
				ring[i] = noisySignal(rng, rss, 0.3)
			}
		}
		decide := func(ring *[64]features.Signal, start int) Decision {
			det.Reset()
			det.At(at.Loc)
			done := det.Done()
			for j := 0; !done && j < len(ring); j++ {
				done = det.Offer(ring[(start+j)%len(ring)])
			}
			dec, err := det.Decide(at.Loc)
			if err != nil {
				b.Fatal(err)
			}
			return dec
		}
		// The first NotSafe campaign reading in a classified locality
		// where a stream at its level stops early NotSafe and one 10 dB
		// under it stops early Safe.
		for i, r := range readings {
			if _, constant := model.constantAt(r.Loc); constant || labels[i] != dataset.LabelNotSafe {
				continue
			}
			at = r
			fill(&rings[0], at.Signal.RSSdBm)
			fill(&rings[1], at.Signal.RSSdBm-10)
			notSafe, safe := decide(&rings[0], 0), decide(&rings[1], 0)
			if notSafe.StoppedEarly && notSafe.Label == dataset.LabelNotSafe && safe.StoppedEarly && safe.Label == dataset.LabelSafe {
				break
			}
		}
		for step := 1; step <= 200; step++ {
			if fill(&rings[2], at.Signal.RSSdBm-0.05*float64(step)); decide(&rings[2], 0).Converged {
				break
			}
		}
		var kinds [3]int // decisions stopped early NotSafe, stopped early Safe, converged
		b.ReportAllocs()
		b.ResetTimer()
		cpu := selfCPU()
		for i := 0; i < b.N; i++ {
			switch dec := decide(&rings[i%3], i/3); {
			case dec.StoppedEarly && dec.Label == dataset.LabelNotSafe:
				kinds[0]++
			case dec.StoppedEarly:
				kinds[1]++
			case dec.Converged:
				kinds[2]++
			}
		}
		if b.N > 0 {
			b.ReportMetric(float64(selfCPU()-cpu)/float64(b.N), "cpu-ns/op")
		}
		if b.N >= 3 && (kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0) {
			b.Fatalf("of %d decisions %d stopped early NotSafe, %d stopped early Safe, %d converged: the place no longer mixes all three",
				b.N, kinds[0], kinds[1], kinds[2])
		}
	})
}

// selfCPU is the process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
