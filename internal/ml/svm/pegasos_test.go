package svm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/ml"
)

// referencePegasosFit is the five-pass trainer Pegasos.Fit replaced: dot
// product, shrink, step, ‖w‖² and projection each walk w on their own, and
// the class weight comes out of a map. It is the oracle for the scaled
// loop, so it stays here unchanged.
func referencePegasosFit(p Pegasos, x [][]float64, y []int) (w []float64, b float64) {
	p.defaults()
	n, dim := len(x), len(x[0])

	weight := map[int]float64{ml.Positive: 1, ml.Negative: 1}
	if p.ClassBalance {
		var pos int
		for _, yi := range y {
			if yi == ml.Positive {
				pos++
			}
		}
		neg := n - pos
		weight[ml.Positive] = float64(n) / (2 * float64(pos))
		weight[ml.Negative] = float64(n) / (2 * float64(neg))
	}

	w = make([]float64, dim)
	rng := rand.New(rand.NewSource(p.Seed))
	order := rng.Perm(n)
	t := 1
	for epoch := 0; epoch < p.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			eta := 1 / (p.Lambda * float64(t))
			t++
			yi := float64(y[idx])
			xi := x[idx]
			var dot float64
			for j := range w {
				dot += w[j] * xi[j]
			}
			margin := yi * (dot + b)
			shrink := 1 - eta*p.Lambda
			for j := range w {
				w[j] *= shrink
			}
			if margin < 1 {
				step := eta * yi * weight[y[idx]]
				for j := range w {
					w[j] += step * xi[j]
				}
				b += step * 0.1
			}
			var norm2 float64
			for j := range w {
				norm2 += w[j] * w[j]
			}
			if bound := 1 / (p.Lambda * norm2); bound < 1 {
				scale := math.Sqrt(bound)
				for j := range w {
					w[j] *= scale
				}
				b *= scale
			}
		}
	}
	return w, b
}

// TestPegasosFitMatchesFivePassReference holds the scaled trainer to the
// reference over random problems: every weight and the bias within 1e-9
// relative, and the same prediction on every training row. (It was bit
// equality until Fit went to scaled form; DESIGN.md §8 has the one
// re-basing.) Small n and few epochs put the per-epoch fold of s into v
// on every few samples; large Lambda keeps the ‖w‖ ≤ 1/√λ projection
// firing; trial shapes 2 to 4 below force what the random ones only
// visit.
func TestPegasosFitMatchesFivePassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lambdas := []float64{1e-4, 1e-2, 0.5, 3}
	var projected int
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		dim := 1 + rng.Intn(9)
		p := Pegasos{
			Lambda:       lambdas[rng.Intn(len(lambdas))],
			Epochs:       1 + rng.Intn(6),
			Seed:         rng.Int63(),
			ClassBalance: rng.Intn(2) == 0,
		}
		switch trial % 10 {
		case 0:
			n = 2 // one reading per class
		case 1:
			dim = 1
		case 2:
			// η = 1/(λt) against ‖w‖ ≤ 1/√λ: every violator among the
			// first 1/(λ‖x‖²) steps lands outside the ball.
			n, p.Lambda, p.Epochs = 120+rng.Intn(40), 1e-4, 1+rng.Intn(2)
		case 3:
			// dim past one four-lane trip, with a remainder.
			dim = 10 + rng.Intn(50)
		case 4:
			// A thousand projections in one epoch: their product
			// underflows unless s is folded into v on the way.
			n, p.Lambda, p.Epochs = 1500, 1e-6, 1
		}
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = make([]float64, dim)
			for j := range x[i] {
				x[i][j] = rng.NormFloat64() * 3
				if rng.Intn(8) == 0 {
					x[i][j] = 0 // as a z-scored constant feature is
				}
			}
			y[i] = ml.Negative
			if rng.Intn(3) == 0 {
				y[i] = ml.Positive
			}
		}
		y[0], y[1] = ml.Positive, ml.Negative // both classes, always

		wantW, wantB := referencePegasosFit(p, x, y)
		if err := p.Fit(x, y); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gotW, gotB, err := p.Model()
		if err != nil {
			t.Fatal(err)
		}
		const tol = 1e-9
		if math.Abs(gotB-wantB) > tol*math.Abs(wantB) {
			t.Fatalf("trial %d (n=%d dim=%d %+v): bias %v, reference %v", trial, n, dim, p, gotB, wantB)
		}
		var norm2 float64
		for j := range wantW {
			if math.Abs(gotW[j]-wantW[j]) > tol*math.Abs(wantW[j]) {
				t.Fatalf("trial %d (n=%d dim=%d %+v): w[%d] = %v, reference %v", trial, n, dim, p, j, gotW[j], wantW[j])
			}
			norm2 += wantW[j] * wantW[j]
		}
		ref := Pegasos{w: wantW, bias: wantB}
		for i := range x {
			got, _ := p.Predict(x[i])
			want, _ := ref.Predict(x[i])
			if got != want {
				t.Fatalf("trial %d (n=%d dim=%d %+v): row %d predicted %d, reference %d", trial, n, dim, p, i, got, want)
			}
		}
		// A model sitting on the ball's surface was projected there.
		if math.Abs(norm2*p.Lambda-1) < 1e-9 {
			projected++
		}
	}
	if projected == 0 {
		t.Error("no trial ended on the projection ball: the rescale branch was not exercised")
	}
}

// TestShuffleExactMatchesRandShuffle: the same permutation as the
// library's Shuffle and the same generator afterwards, so everything a
// fit draws later is what it drew when it called rng.Shuffle.
func TestShuffleExactMatchesRandShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 5282} {
		seeds := 1000
		if n > 3 && testing.Short() {
			seeds = 50
		}
		got, want := make([]int, n), make([]int, n)
		for seed := int64(0); seed < int64(seeds); seed++ {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := range got {
				got[i], want[i] = i, i
			}
			// Twice: the second shuffle starts from the first's state.
			for round := 0; round < 2; round++ {
				shuffleExact(a, got)
				b.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: element %d is %d, rand.Shuffle puts %d there", n, seed, i, got[i], want[i])
				}
			}
			if g, w := a.Int63(), b.Int63(); g != w {
				t.Fatalf("n=%d seed=%d: next Int63 %d, after rand.Shuffle %d", n, seed, g, w)
			}
		}
	}
}
