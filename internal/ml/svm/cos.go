package svm

import "math"

// The pure-Go math.cos's own constants (math/sin.go, after Cephes), shared
// by cosRowGo and the vector kernel's lane table.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	sin0 = 1.58962301576546568060e-10 // 0x3de5d8fd1fd19ccd
	sin1 = -2.50507477628578072866e-8 // 0xbe5ae5e5a9291f5d
	sin2 = 2.75573136213857245213e-6  // 0x3ec71de3567d48a1
	sin3 = -1.98412698295895385996e-4 // 0xbf2a01a019bfdf03
	sin4 = 8.33333333332211858878e-3  // 0x3f8111111110f7d0
	sin5 = -1.66666666666666307295e-1 // 0xbfc5555555555548

	cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
	cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
	cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
	cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
	cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
	cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b

	// reduceLimit is where the library leaves the Cody–Waite reduction
	// for Payne–Hanek.
	reduceLimit = 1 << 29
)

// cosRowGo replaces every row[i] with scale·math.Cos(row[i]), bit for bit,
// without math.Cos's two data-dependent branches on the octant of its
// argument. Across a row of random Fourier features the octant is a coin
// flip, so the library spends most of its time on mispredictions; here
// both of its polynomials are evaluated and the quadrant bits pick one,
// and the sign, with integer masks.
//
// Everything that makes a float64 is the library's own: the Cody–Waite
// reduction by a three-part π/4, the two coefficient tables, the Horner
// order. So this is the same operations on the same operands in the same
// order (DESIGN.md §8), and TestCosExactMatchesMathCos / FuzzCosExact hold
// it to Float64bits equality. Past 2²⁹ the library switches to a
// Payne–Hanek reduction; that range, NaN and ±Inf go to math.Cos itself.
//
// cosRow runs it wherever the vector kernel does not: on other CPUs, a
// row's tail and any group of four with a lane past the reduction.
func cosRowGo(row []float64, scale float64) {
	for i, x := range row {
		x = math.Abs(x)
		if !(x < reduceLimit) { // also NaN and +Inf
			row[i] = scale * math.Cos(x)
			continue
		}
		// Integer part of x/(π/4), rounded up to even so z lands in
		// [−π/4, π/4]. Below 2³⁰ the signed conversions are the
		// library's unsigned ones, and float64(j+1) is its float64(j)+1.
		j := int64(x * (4 / math.Pi))
		j += j & 1
		y := float64(j)
		z := ((x - y*pi4A) - y*pi4B) - y*pi4C
		zz := z * z
		ys := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
		yc := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
		// j mod 8 is 0, 2, 4 or 6: cos z, −sin z, −cos z, sin z.
		q := uint64(j)
		useSin := -(q >> 1 & 1)
		bits := math.Float64bits(ys)&useSin | math.Float64bits(yc)&^useSin
		row[i] = scale * math.Float64frombits(bits^(q>>1^q>>2)&1<<63)
	}
}
