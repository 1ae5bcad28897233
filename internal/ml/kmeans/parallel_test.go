package kmeans

import (
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/ml"
)

// TestRunWorkerCountInvariance is the determinism contract of the worker
// pool: the fitted clustering must be byte-identical for any Workers
// setting, including above the host's GOMAXPROCS. The input is large
// enough (≥ minParallelPoints) that the fan-out actually engages.
func TestRunWorkerCountInvariance(t *testing.T) {
	x, _ := clusters3(2000, 7)
	base, err := Run(x, Config{K: 5, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 16} {
		res, err := Run(x, Config{K: 5, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Iterations != base.Iterations || res.Inertia != base.Inertia {
			t.Fatalf("workers=%d: iterations/inertia %d/%v, want %d/%v",
				workers, res.Iterations, res.Inertia, base.Iterations, base.Inertia)
		}
		for i := range base.Assignments {
			if res.Assignments[i] != base.Assignments[i] {
				t.Fatalf("workers=%d: assignment %d = %d, want %d",
					workers, i, res.Assignments[i], base.Assignments[i])
			}
		}
		for c := range base.Centers {
			for j := range base.Centers[c] {
				if res.Centers[c][j] != base.Centers[c][j] {
					t.Fatalf("workers=%d: center %d dim %d = %v, want %v",
						workers, c, j, res.Centers[c][j], base.Centers[c][j])
				}
			}
		}
	}
}

// BenchmarkKMeansAssign measures the Lloyd loop at campaign scale (5,000
// points, K=12) for the serial and auto worker settings.
func BenchmarkKMeansAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := make([][]float64, 5000)
	for i := range x {
		x[i] = []float64{rng.Float64() * 30, rng.Float64() * 30}
	}
	for _, bench := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=auto", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(x, Config{K: 12, Seed: 3, Workers: bench.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKMeansLocalities measures localities identification as the
// Model Constructor runs it on one metro channel: 5 282 reading
// locations in km over a ~26 km square, three localities, one worker.
func BenchmarkKMeansLocalities(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := ml.NewMatrix(5282, 2)
	for i := range x {
		x[i][0], x[i][1] = rng.Float64()*26, rng.Float64()*26
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(x, Config{K: 3, Seed: int64(i), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
