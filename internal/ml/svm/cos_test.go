package svm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// cosExact is math.Cos(x), bit for bit: the Go body on a row of one.
func cosExact(x float64) float64 {
	row := [1]float64{x}
	cosRowGo(row[:], 1)
	return row[0]
}

// skipUnlessLibraryCosIsPureGo skips where cosExact cannot be held to
// bit equality: an architecture whose math.Cos is assembly (s390x) or
// whose compiler may fuse x*y+z (arm64, ppc64, riscv64) is a different
// library. The golden model hash is asserted on amd64 for the same reason.
func skipUnlessLibraryCosIsPureGo(t testing.TB) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("cosExact is pinned to math.Cos on amd64; %s may use an assembly Cos or fused multiply-adds", runtime.GOARCH)
	}
}

// checkCosExact holds the Go body on a row of one, and cosRow with x in
// each lane of a row of four beside ordinary phases, to math.Cos(x): a
// row of one never reaches the vector kernel, a group of four does
// unless x is past its range.
func checkCosExact(t testing.TB, x float64) {
	want := math.Cos(x)
	check := func(lane int, got float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			what := "cosExact"
			if lane >= 0 {
				what = fmt.Sprintf("cosRow, lane %d of 4,", lane)
			}
			t.Fatalf("%s(%v [%#x]) = %v [%#x], math.Cos %v [%#x]",
				what, x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check(-1, cosExact(x))
	for lane := 0; lane < 4; lane++ {
		row := [4]float64{0.5, 1.5, 2.5, 3.5}
		row[lane] = x
		cosRow(row[:], 1)
		check(lane, row[lane])
	}
}

// cosEdges is where a copy of the library could part from it: the zeros,
// the subnormals, the octant boundaries, both sides of the switch to
// Payne–Hanek reduction, and what is not a number.
func cosEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
		1, -1, 1e300, -1e300, math.MaxFloat64,
		1<<29 - 1, 1 << 29, 1<<29 + 1, -(1<<29 - 1), -(1 << 29),
		math.Nextafter(1<<29, 0), math.Nextafter(1<<29, math.Inf(1)),
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	// Every multiple of π/4 over four turns, and the last few below the
	// threshold, each with its neighbours: where j, and with it the
	// polynomial and the sign, changes.
	for _, k := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		31, 32, 33, 683565273, 683565274, 683565275} {
		b := k * (math.Pi / 4)
		edges = append(edges, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)),
			-b, math.Nextafter(-b, 0), math.Nextafter(-b, math.Inf(-1)))
	}
	return edges
}

func TestCosExactMatchesMathCos(t *testing.T) {
	skipUnlessLibraryCosIsPureGo(t)
	for _, x := range cosEdges() {
		checkCosExact(t, x)
	}
	rng := rand.New(rand.NewSource(11))
	// What transformInto feeds it: w·x over z-scored inputs plus a
	// phase in [0, 2π).
	for i := 0; i < 200000; i++ {
		checkCosExact(t, rng.NormFloat64()*3+rng.Float64()*2*math.Pi)
		checkCosExact(t, -rng.Float64()*40)
	}
	// Log-uniform magnitudes from 2⁻⁴⁰ to 2⁴⁰, both signs: every octant at
	// every exponent the reduction sees, and the fallback beyond 2²⁹.
	for i := 0; i < 400000; i++ {
		x := math.Exp2(rng.Float64()*80 - 40)
		checkCosExact(t, x)
		checkCosExact(t, -x)
	}
}

// FuzzCosExact takes a float64 by its bits; testdata/fuzz/FuzzCosExact
// holds the edges above by name, so plain `go test` replays them.
func FuzzCosExact(f *testing.F) {
	skipUnlessLibraryCosIsPureGo(f)
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkCosExact(t, math.Float64frombits(bits))
	})
}

// TestCosRowMatchesScalar: a row's lanes are independent. Whatever sits
// beside an element — the fallback range, NaN, ±Inf, −0, in any of the
// four positions of a group, or in a row's tail — element i of a scaled
// row is the Go body's, and scale·math.Cos of element i, by bits.
func TestCosRowMatchesScalar(t *testing.T) {
	skipUnlessLibraryCosIsPureGo(t)
	rng := rand.New(rand.NewSource(13))
	special := []float64{1 << 29, 1<<29 + 1, -(1 << 29), 1e300, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for trial := 0; trial < 2000; trial++ {
		args := make([]float64, 41+trial%8) // tails of 1, 2, 3 and 0
		for i := range args {
			args[i] = rng.NormFloat64()*3 + rng.Float64()*2*math.Pi
		}
		if trial%4 != 0 {
			for k, v := range special {
				args[4*(2+k)+(k+trial/4)%4] = v // groups 2–9, every position in turn
			}
		}
		scale := math.Sqrt(2 / float64(1+rng.Intn(256)))
		row := append([]float64(nil), args...)
		cosRow(row, scale)
		ref := append([]float64(nil), args...)
		cosRowGo(ref, scale)
		for i, x := range args {
			want := scale * math.Cos(x)
			if math.Float64bits(row[i]) != math.Float64bits(ref[i]) || math.Float64bits(row[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d lane %d of %d: cosRow(%v [%#x]) = %v [%#x], Go body %v [%#x], scale·math.Cos %v [%#x]",
					trial, i, len(args), x, math.Float64bits(x), row[i], math.Float64bits(row[i]),
					ref[i], math.Float64bits(ref[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestTransformIntoMatchesDefinition: z(x)ᵢ = sqrt(2/D)·cos(wᵢ·x + bᵢ),
// the dot product summed left to right from zero — by bits, for the
// written-out input dimension and the looped ones.
func TestTransformIntoMatchesDefinition(t *testing.T) {
	skipUnlessLibraryCosIsPureGo(t)
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{1, 2, 3, 4, 5, 9} {
		rff, err := NewRFF(dim, 48, 0.35, int64(dim))
		if err != nil {
			t.Fatal(err)
		}
		w, b := rff.Params()
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = rng.NormFloat64()
				if rng.Intn(6) == 0 {
					x[j] = math.Copysign(0, -1) // as a constant feature, z-scored
				}
			}
			got, err := rff.Transform(x)
			if err != nil {
				t.Fatal(err)
			}
			scale := math.Sqrt(2 / float64(len(b)))
			for i := range b {
				var dot float64
				for j := range x {
					dot += w[i][j] * x[j]
				}
				if want := scale * math.Cos(dot+b[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("dim %d feature %d of z(%v) = %v, definition %v", dim, i, x, got[i], want)
				}
			}
		}
	}
}
