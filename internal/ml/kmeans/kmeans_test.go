package kmeans

import (
	"math"
	"math/rand"
	"testing"
)

func clusters3(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	var x [][]float64
	var truth []int
	for i := 0; i < n; i++ {
		c := i % 3
		x = append(x, []float64{
			centers[c][0] + rng.NormFloat64(),
			centers[c][1] + rng.NormFloat64(),
		})
		truth = append(truth, c)
	}
	return x, truth
}

func TestRunRecoversClusters(t *testing.T) {
	x, truth := clusters3(600, 1)
	res, err := Run(x, Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 || len(res.Assignments) != len(x) {
		t.Fatalf("shape: %d centers, %d assignments", len(res.Centers), len(res.Assignments))
	}
	// Purity: each true cluster should map overwhelmingly to one found
	// cluster.
	for trueC := 0; trueC < 3; trueC++ {
		counts := map[int]int{}
		total := 0
		for i, tc := range truth {
			if tc == trueC {
				counts[res.Assignments[i]]++
				total++
			}
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		if purity := float64(best) / float64(total); purity < 0.98 {
			t.Errorf("cluster %d purity = %v", trueC, purity)
		}
	}
	// Each center should sit near a true center.
	wants := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for _, c := range res.Centers {
		bestDist := math.Inf(1)
		for _, w := range wants {
			d := math.Hypot(c[0]-w[0], c[1]-w[1])
			if d < bestDist {
				bestDist = d
			}
		}
		if bestDist > 0.5 {
			t.Errorf("center %v is %v from any true center", c, bestDist)
		}
	}
}

func TestRunK1(t *testing.T) {
	x, _ := clusters3(90, 3)
	res, err := Run(x, Config{K: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Single center = centroid of all points.
	var mx, my float64
	for _, p := range x {
		mx += p[0]
		my += p[1]
	}
	mx /= float64(len(x))
	my /= float64(len(x))
	if math.Hypot(res.Centers[0][0]-mx, res.Centers[0][1]-my) > 1e-9 {
		t.Errorf("k=1 center %v, want centroid (%v,%v)", res.Centers[0], mx, my)
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	x, _ := clusters3(300, 5)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 3, 5} {
		res, err := Run(x, Config{K: k, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev {
			t.Errorf("inertia should not increase with k: k=%d inertia=%v prev=%v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestRunValidation(t *testing.T) {
	x, _ := clusters3(9, 7)
	if _, err := Run(x, Config{K: 0}); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := Run(x, Config{K: 100}); err == nil {
		t.Error("k > n must fail")
	}
	if _, err := Run([][]float64{{1, 2}, {3}}, Config{K: 1}); err == nil {
		t.Error("ragged input must fail")
	}
}

func TestRunDeterminism(t *testing.T) {
	x, _ := clusters3(300, 8)
	a, err := Run(x, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(x, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed must give identical clustering")
		}
	}
}

func TestNearest(t *testing.T) {
	centers := [][]float64{{0, 0}, {5, 5}}
	idx, d2 := Nearest(centers, []float64{4, 4})
	if idx != 1 || d2 != 2 {
		t.Errorf("Nearest = %d, %v", idx, d2)
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	// All points identical: k-means++ must not loop forever.
	x := make([][]float64, 10)
	for i := range x {
		x[i] = []float64{1, 1}
	}
	res, err := Run(x, Config{K: 3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Fatalf("got %d centers", len(res.Centers))
	}
	if res.Inertia != 0 {
		t.Errorf("inertia = %v, want 0", res.Inertia)
	}
}

// TestPlanarFastPathMatchesGeneralPath pins the two-dimensional scans to
// the general ones: the same points with a zero third coordinate take
// the sqDist path, where d0² + d1² + 0² is the same float64, so seeding
// draws, assignments, centers and inertia must agree bit for bit. Few
// distinct points and a large k make coincident centers and empty-
// cluster re-seeds likely too.
func TestPlanarFastPathMatchesGeneralPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(200)
		k := 1 + rng.Intn(min(n, 7))
		distinct := n
		if trial%3 == 0 {
			distinct = 1 + rng.Intn(4)
		}
		planar := make([][]float64, n)
		padded := make([][]float64, n)
		for i := range planar {
			if i < distinct {
				planar[i] = []float64{rng.NormFloat64() * 9, rng.NormFloat64() * 9}
			} else {
				planar[i] = planar[rng.Intn(distinct)]
			}
			padded[i] = []float64{planar[i][0], planar[i][1], 0}
		}
		cfg := Config{K: k, Seed: int64(trial), Workers: 1}
		got, err := Run(planar, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(padded, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations || math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
			t.Fatalf("trial %d (n=%d k=%d): iterations/inertia %d/%v, general path %d/%v",
				trial, n, k, got.Iterations, got.Inertia, want.Iterations, want.Inertia)
		}
		for i := range want.Assignments {
			if got.Assignments[i] != want.Assignments[i] {
				t.Fatalf("trial %d: assignment %d = %d, general path %d", trial, i, got.Assignments[i], want.Assignments[i])
			}
		}
		for c := range want.Centers {
			for j := range got.Centers[c] {
				if math.Float64bits(got.Centers[c][j]) != math.Float64bits(want.Centers[c][j]) {
					t.Fatalf("trial %d: center %d dim %d = %v, general path %v", trial, c, j, got.Centers[c][j], want.Centers[c][j])
				}
			}
		}
	}
}
