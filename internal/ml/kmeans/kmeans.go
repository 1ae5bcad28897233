// Package kmeans implements k-means clustering with k-means++ seeding. The
// Waldo Model Constructor clusters reading locations into "localities" and
// trains one classifier per cluster (paper §3.2), trading model locality
// against download overhead.
//
// The assignment step and the k-means++ distance scans — the O(n·k·dim)
// bulk of the work at metro scale — fan out across a worker pool. Every
// point's nearest-center computation is independent and partial results
// are written to disjoint slice ranges, so the output is byte-identical
// for any worker count (and identical to the historical serial code).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Result is a fitted clustering.
type Result struct {
	// Centers holds the k cluster centroids.
	Centers [][]float64
	// Assignments maps each input row to its center index.
	Assignments []int
	// Inertia is the total within-cluster squared distance.
	Inertia float64
	// Iterations is the number of Lloyd iterations run.
	Iterations int
}

// Config parameterizes a run.
type Config struct {
	// K is the number of clusters; required.
	K int
	// MaxIterations bounds Lloyd's loop; default 100.
	MaxIterations int
	// Seed drives k-means++ seeding.
	Seed int64
	// Workers caps the pool for the assignment and seeding distance
	// scans; 0 (or negative) means GOMAXPROCS, 1 forces serial. The
	// result is byte-identical regardless of the setting: only
	// per-point work is parallelized, and all floating-point
	// reductions (centroid sums, inertia, D² totals) run serially in
	// point order.
	Workers int
}

// minParallelPoints gates the worker fan-out: below this many points the
// goroutine handoff costs more than the scan itself.
const minParallelPoints = 512

// resolveWorkers maps the Workers knob to an effective pool size for n
// points.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n < minParallelPoints {
		return 1
	}
	return workers
}

// parallelRanges splits [0, n) into one contiguous chunk per worker and
// runs fn on each, passing the chunk index w. With one worker it runs
// inline. Chunks are disjoint, so fn may write to per-index (or per-w)
// outputs without synchronization.
func parallelRanges(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n == 0 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// Run clusters the rows of x into cfg.K groups.
func Run(x [][]float64, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: k must be ≥1, got %d", cfg.K)
	}
	if len(x) < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points for k=%d", len(x), cfg.K)
	}
	dim := len(x[0])
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("kmeans: ragged input at row %d", i)
		}
	}
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 100
	}
	workers := resolveWorkers(cfg.Workers, len(x))

	// The centers are rows of one array, so the two-dimensional scan can
	// walk them without a slice header per center.
	centerData := make([]float64, cfg.K*dim)
	centers := make([][]float64, cfg.K)
	for c := range centers {
		centers[c] = centerData[c*dim : (c+1)*dim : (c+1)*dim]
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seedPlusPlus(centers, x, rng, workers)
	assign := make([]int, len(x))
	counts := make([]int, cfg.K)
	sums := make([][]float64, cfg.K)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	changedBy := make([]bool, workers)

	var iters int
	for iters = 1; iters <= maxIter; iters++ {
		// Assignment: each worker scans a disjoint range of points.
		// assign[i] depends only on x[i] and the shared read-only
		// centers, so the outcome matches the serial scan exactly.
		first := iters == 1
		parallelRanges(len(x), workers, func(w, lo, hi int) {
			changedBy[w] = assignNearest(x[lo:hi], centers, centerData, assign[lo:hi]) || first
		})
		changed := false
		for w := range changedBy {
			if changedBy[w] {
				changed = true
				changedBy[w] = false
			}
		}
		if !changed {
			break
		}
		// Recompute centroids. The sums accumulate serially in point
		// order: determinism matters more than parallelizing this
		// O(n·dim) pass, which is dwarfed by the O(n·k·dim) scan above.
		for c := range sums {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, p := range x {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centers[c], x[rng.Intn(len(x))])
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}

	var inertia float64
	for i, p := range x {
		inertia += sqDist(centers[assign[i]], p)
	}
	return &Result{Centers: centers, Assignments: assign, Inertia: inertia, Iterations: iters}, nil
}

// assignNearest points each assign[i] at the center nearest x[i] and
// reports whether any of them moved; centerData is the array the centers
// are rows of. Reading locations are planar, so the Model Constructor
// only ever asks for two dimensions: that case keeps the point in
// registers and has no inner loop. 0 + d0² + d1² rounds exactly as
// sqDist's accumulation does, so the assignments are the same.
func assignNearest(x, centers [][]float64, centerData []float64, assign []int) (changed bool) {
	if len(centers[0]) != 2 {
		for i, p := range x {
			best, _ := Nearest(centers, p)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		return changed
	}
	for i, p := range x {
		p0, p1 := p[0], p[1]
		best, bestD := 0, math.Inf(1)
		for c := 0; c+1 < len(centerData); c += 2 {
			d0, d1 := centerData[c]-p0, centerData[c+1]-p1
			if d := d0*d0 + d1*d1; d < bestD {
				best, bestD = c/2, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// Nearest returns the index of the closest center to p and the squared
// distance to it.
func Nearest(centers [][]float64, p []float64) (idx int, dist2 float64) {
	dist2 = math.Inf(1)
	for c, center := range centers {
		if d := sqDist(center, p); d < dist2 {
			dist2 = d
			idx = c
		}
	}
	return idx, dist2
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// seedPlusPlus fills centers with k-means++ picks (D² sampling). The
// min-distance table is maintained incrementally — after each new center
// only the distance to that center is scanned, in parallel — which is
// exactly the min the historical full rescan computed, so the sampled
// centers are bit-identical to the serial implementation.
func seedPlusPlus(centers, x [][]float64, rng *rand.Rand, workers int) {
	copy(centers[0], x[rng.Intn(len(x))])
	d2 := make([]float64, len(x))
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for c := 1; c < len(centers); c++ {
		newest := centers[c-1]
		parallelRanges(len(x), workers, func(_, lo, hi int) {
			lowerToSqDist(d2[lo:hi], x[lo:hi], newest)
		})
		// The D² total and the cumulative-sum sampling walk stay
		// serial, in point order: the draw must not depend on the
		// worker count.
		var total float64
		for _, d := range d2 {
			total += d
		}
		if total == 0 {
			// All points coincide with centers; duplicate one.
			copy(centers[c], x[0])
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := len(x) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		copy(centers[c], x[pick])
	}
}

// lowerToSqDist lowers each d2[i] to the squared distance from x[i] to
// center where that is smaller, with the same two-dimensional case as
// assignNearest.
func lowerToSqDist(d2 []float64, x [][]float64, center []float64) {
	if len(center) != 2 {
		for i, p := range x {
			if d := sqDist(center, p); d < d2[i] {
				d2[i] = d
			}
		}
		return
	}
	c0, c1 := center[0], center[1]
	for i, p := range x {
		d0, d1 := c0-p[0], c1-p[1]
		if d := d0*d0 + d1*d1; d < d2[i] {
			d2[i] = d
		}
	}
}
