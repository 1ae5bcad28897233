package ml

import (
	"math"
	"testing"
)

func TestCheckTrainingSet(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	labels := []int{Positive, Negative, Positive}
	dim, err := CheckTrainingSet(good, labels)
	if err != nil || dim != 2 {
		t.Fatalf("valid set rejected: dim=%d err=%v", dim, err)
	}

	cases := []struct {
		name string
		x    [][]float64
		y    []int
	}{
		{"empty", nil, nil},
		{"length mismatch", good, []int{1, -1}},
		{"zero dim", [][]float64{{}, {}}, []int{1, -1}},
		{"ragged", [][]float64{{1, 2}, {3}}, []int{1, -1}},
		{"nan", [][]float64{{1, math.NaN()}, {3, 4}}, []int{1, -1}},
		{"inf", [][]float64{{1, math.Inf(1)}, {3, 4}}, []int{1, -1}},
		{"bad label", good, []int{1, 2, -1}},
		{"single class", good, []int{1, 1, 1}},
	}
	for _, tt := range cases {
		if _, err := CheckTrainingSet(tt.x, tt.y); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{0, 10}, {2, 10}, {4, 10}}
	std, err := FitStandardizer(x)
	if err != nil {
		t.Fatal(err)
	}
	if std.Dim() != 2 {
		t.Fatalf("dim = %d", std.Dim())
	}
	z, err := std.Transform([]float64{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z[0]) > 1e-12 {
		t.Errorf("mean point should transform to 0, got %v", z[0])
	}
	// Constant feature: centered, unit scale.
	if z[1] != 0 {
		t.Errorf("constant feature should center to 0, got %v", z[1])
	}
	zAll, err := std.TransformAll(x)
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 must have zero mean and (population) unit variance.
	var mean, ss float64
	for _, row := range zAll {
		mean += row[0]
	}
	mean /= 3
	for _, row := range zAll {
		ss += (row[0] - mean) * (row[0] - mean)
	}
	if math.Abs(mean) > 1e-12 || math.Abs(ss/3-1) > 1e-12 {
		t.Errorf("standardized column: mean=%v var=%v", mean, ss/3)
	}
	if _, err := std.Transform([]float64{1}); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestStandardizerRoundTripParams(t *testing.T) {
	x := [][]float64{{1, -5}, {3, 5}, {5, 15}}
	std, err := FitStandardizer(x)
	if err != nil {
		t.Fatal(err)
	}
	mean, scale := std.Params()
	clone, err := NewStandardizerFromParams(mean, scale)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := std.Transform([]float64{2, 0})
	b, _ := clone.Transform([]float64{2, 0})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone differs: %v vs %v", a, b)
		}
	}
	if _, err := NewStandardizerFromParams([]float64{1}, []float64{0}); err == nil {
		t.Error("zero scale should be rejected")
	}
	if _, err := NewStandardizerFromParams([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should be rejected")
	}
}

func TestStandardizerErrors(t *testing.T) {
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := FitStandardizer([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should fail")
	}
}

func TestNewMatrix(t *testing.T) {
	if avg := testing.AllocsPerRun(10, func() { NewMatrix(500, 4) }); avg > 2 {
		t.Errorf("NewMatrix(500, 4) allocates %.0f objects, want the backing array and the row headers", avg)
	}
	m := NewMatrix(3, 4)
	if len(m) != 3 {
		t.Fatalf("%d rows, want 3", len(m))
	}
	for i, row := range m {
		if len(row) != 4 || cap(row) != 4 {
			t.Fatalf("row %d has len %d cap %d, want 4/4", i, len(row), cap(row))
		}
		for j := range row {
			row[j] = float64(10*i + j)
		}
	}
	// Rows do not overlap, and a row is at capacity: appending to it
	// reallocates instead of running into its neighbour.
	_ = append(m[0], 99)
	for i, row := range m {
		for j, v := range row {
			if v != float64(10*i+j) {
				t.Fatalf("m[%d][%d] = %v after writing every cell and appending to row 0", i, j, v)
			}
		}
	}
	if got := NewMatrix(0, 4); len(got) != 0 {
		t.Errorf("NewMatrix(0, 4) has %d rows", len(got))
	}
}
