package svm

import "math"

// useAVX2 is whether cosRow may run cosRowAVX2: the CPU has AVX2 and the
// operating system saves the YMM registers across context switches.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xgetbv()&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cosRow is cosRowGo, four lanes at a time where the CPU allows: each
// lane of cosRowAVX2 does cosRowGo's operations on the same operands in
// the same order, with no fused multiply-add, so the bits are the same.
// A group of four with a lane past the reduction (|x| ≥ 2²⁹, NaN, ±Inf)
// and the row's last len(row) mod 4 elements take cosRowGo.
func cosRow(row []float64, scale float64) {
	if useAVX2 {
		for len(row) >= 4 {
			row = row[cosRowAVX2(row, scale, &cosLanes):]
			if len(row) >= 4 { // stopped at a group it cannot reduce
				cosRowGo(row[:4], scale)
				row = row[4:]
			}
		}
	}
	cosRowGo(row, scale)
}

// cosLanes is what cosRowAVX2 reads, each value in four lanes, in the
// order of the offsets in cos_amd64.s.
var cosLanes = func() (t [22][4]uint64) {
	for i, v := range [...]uint64{
		1<<63 - 1, // |x|
		math.Float64bits(reduceLimit),
		math.Float64bits(4 / math.Pi),
		math.Float64bits(pi4A), math.Float64bits(pi4B), math.Float64bits(pi4C),
		math.Float64bits(sin0), math.Float64bits(sin1), math.Float64bits(sin2),
		math.Float64bits(sin3), math.Float64bits(sin4), math.Float64bits(sin5),
		math.Float64bits(cos0), math.Float64bits(cos1), math.Float64bits(cos2),
		math.Float64bits(cos3), math.Float64bits(cos4), math.Float64bits(cos5),
		math.Float64bits(0.5), math.Float64bits(1.0),
		1 << 63,      // the sign bit
		1<<32 | 1<<0, // an int32 1 in each half: j & 1 on the 32-bit j
	} {
		t[i] = [4]uint64{v, v, v, v}
	}
	return t
}()

// cosRowAVX2 runs cosRowGo's Cody–Waite branch on row four elements at a
// time and returns how many it wrote: a multiple of four, short of
// len(row) only by the tail or at the first group holding a lane that is
// not below 2²⁹ in magnitude (NaN and ±Inf included), which it leaves
// unwritten.
//
//go:noescape
func cosRowAVX2(row []float64, scale float64, lanes *[22][4]uint64) int

func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// xgetbv reads XCR0; call it only where CPUID reports OSXSAVE.
func xgetbv() uint32
