package svm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/ml"
)

// localityRows is one locality of the metro rebuild: 5 282 readings over
// three clusters.
const localityRows = 1760

// localitySet imitates what the Model Constructor hands a locality's
// classifier: z-scored location + RSS + CFT rows, the vacant class a
// minority decided mostly by the two signal features.
func localitySet(n int, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	x = ml.NewMatrix(n, 4)
	y = make([]int, n)
	for i := range x {
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = ml.Negative
		if x[i][2]+0.5*x[i][3]+0.3*rng.NormFloat64() < -0.6 {
			y[i] = ml.Positive
		}
	}
	return x, y
}

// BenchmarkRFFSVMTrain measures one locality's KindSVM fit as the Model
// Constructor configures it (newClassifier in internal/core).
func BenchmarkRFFSVMTrain(b *testing.B) {
	x, y := localitySet(localityRows, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &RFFSVM{D: 48, Gamma: 0.35, Seed: int64(i), Linear: Pegasos{ClassBalance: true}}
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRFFTransform measures one row of the feature map at the
// constructor's shape: 48 four-element dot products and 48 cosines.
func BenchmarkRFFTransform(b *testing.B) {
	x, _ := localitySet(localityRows, 1)
	rff, err := NewRFF(4, 48, 0.35, 6)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, rff.OutputDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rff.transformInto(out, x[i%len(x)]); err != nil {
			b.Fatal(err)
		}
	}
	benchSinkF += out[0]
}

// BenchmarkCosExact compares the kernel with the library on the arguments
// transformInto gives it. kernel and library take one cosine an op;
// row48 takes the constructor's row of D = 48 phases an op, through the
// dispatching cosRow (four lanes at a time where the CPU has AVX2), the
// Go body alone and the library, and reports ns/cos.
func BenchmarkCosExact(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	args := make([]float64, 4096)
	for i := range args {
		args[i] = rng.NormFloat64()*3 + rng.Float64()*2*math.Pi
	}
	for _, c := range []struct {
		name string
		cos  func(float64) float64
	}{{"kernel", cosExact}, {"library", math.Cos}} {
		b.Run(c.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += c.cos(args[i%len(args)])
			}
			benchSinkF += sum
		})
	}
	const d = 48
	for _, c := range []struct {
		name string
		row  func(row []float64, scale float64)
	}{{"cosRow", cosRow}, {"go", cosRowGo}, {"library", func(row []float64, scale float64) {
		for i, x := range row {
			row[i] = scale * math.Cos(x)
		}
	}}} {
		b.Run("row48/"+c.name, func(b *testing.B) {
			row := make([]float64, d)
			var sum float64
			for i := 0; i < b.N; i++ {
				off := i * d % (len(args) - d)
				copy(row, args[off:off+d])
				c.row(row, 0.2)
				sum += row[0]
			}
			benchSinkF += sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d), "ns/cos")
		})
	}
}

func BenchmarkRFFSVMPredict(b *testing.B) {
	x, y := twoBlobs(2000, 2, 2)
	m := &RFFSVM{D: 48, Gamma: 0.35, Seed: 3}
	if err := m.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(x[i%len(x)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMOTrain500(b *testing.B) {
	x, y := rings(500, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &SMO{Kernel: RBF{Gamma: 1}, Seed: int64(i)}
		if err := s.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	benchSink  int
	benchSinkF float64
)

// BenchmarkPegasosTrain measures the linear trainer alone on what RFFSVM
// feeds it inside the constructor: the locality's rows mapped to 48
// random Fourier features.
func BenchmarkPegasosTrain(b *testing.B) {
	x, y := localitySet(localityRows, 5)
	rff, err := NewRFF(4, 48, 0.35, 6)
	if err != nil {
		b.Fatal(err)
	}
	z := make([][]float64, len(x))
	for i := range x {
		if z[i], err = rff.Transform(x[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &Pegasos{Seed: int64(i), ClassBalance: true}
		if err := p.Fit(z, y); err != nil {
			b.Fatal(err)
		}
		pred, _ := p.Predict(z[0])
		benchSink += pred
	}
}

var _ ml.Classifier = (*RFFSVM)(nil)
