package validate

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/wsdetect/waldo/internal/ml"
	"github.com/wsdetect/waldo/internal/ml/bayes"
	"github.com/wsdetect/waldo/internal/ml/svm"
)

func TestMetricsCounting(t *testing.T) {
	var m Metrics
	m.Count(ml.Positive, ml.Positive) // TP
	m.Count(ml.Positive, ml.Negative) // FP
	m.Count(ml.Negative, ml.Positive) // FN
	m.Count(ml.Negative, ml.Negative) // TN
	m.Count(ml.Negative, ml.Negative) // TN

	if m.TP != 1 || m.FP != 1 || m.FN != 1 || m.TN != 2 {
		t.Fatalf("counts: %+v", m)
	}
	if m.Total() != 5 {
		t.Errorf("total = %d", m.Total())
	}
	// FP rate = FP / occupied = 1/3; FN rate = FN / vacant = 1/2.
	if math.Abs(m.FPRate()-1.0/3) > 1e-12 {
		t.Errorf("FP rate = %v", m.FPRate())
	}
	if math.Abs(m.FNRate()-0.5) > 1e-12 {
		t.Errorf("FN rate = %v", m.FNRate())
	}
	if math.Abs(m.ErrorRate()-0.4) > 1e-12 {
		t.Errorf("error rate = %v", m.ErrorRate())
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestMetricsEmptyDenominators(t *testing.T) {
	var m Metrics
	if m.FPRate() != 0 || m.FNRate() != 0 || m.ErrorRate() != 0 {
		t.Error("empty metrics should report zero rates")
	}
	var add Metrics
	add.Count(ml.Positive, ml.Positive)
	m.Add(add)
	if m.TP != 1 {
		t.Error("Add failed")
	}
}

func TestKFoldPartition(t *testing.T) {
	folds, err := KFold(103, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		if len(f) < 10 || len(f) > 11 {
			t.Errorf("fold size %d, want 10-11", len(f))
		}
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 103 {
		t.Fatalf("covered %d of 103 indices", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", i, c)
		}
	}

	// Splits holds each fold out in turn and trains on the rest, in
	// index order.
	splits, err := Splits(103, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != len(folds) {
		t.Fatalf("splits = %d, folds = %d", len(splits), len(folds))
	}
	tested := make(map[int]int)
	for f, sp := range splits {
		if !slices.Equal(sp.Test, folds[f]) {
			t.Errorf("split %d tests %v, want fold %v", f, sp.Test, folds[f])
		}
		held := make(map[int]bool)
		for _, i := range sp.Test {
			tested[i]++
			held[i] = true
		}
		var complement []int
		for i := range 103 {
			if !held[i] {
				complement = append(complement, i)
			}
		}
		if !slices.Equal(sp.Train, complement) {
			t.Errorf("split %d trains on %v, want the ascending complement %v", f, sp.Train, complement)
		}
	}
	if len(tested) != 103 {
		t.Fatalf("tested %d of 103 indices", len(tested))
	}
	for i, c := range tested {
		if c != 1 {
			t.Fatalf("index %d is tested %d times", i, c)
		}
	}
	again, err := Splits(103, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, splits) {
		t.Error("the same seed gave different splits")
	}
}

func TestKFoldValidation(t *testing.T) {
	if _, err := KFold(5, 1, 0); err == nil {
		t.Error("k=1 must fail")
	}
	if _, err := KFold(3, 10, 0); err == nil {
		t.Error("n<k must fail")
	}
}

func makeBlobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x = append(x, []float64{1000 + 3*rng.NormFloat64(), rng.NormFloat64() * 50})
			y = append(y, ml.Positive)
		} else {
			x = append(x, []float64{990 + 3*rng.NormFloat64(), rng.NormFloat64() * 50})
			y = append(y, ml.Negative)
		}
	}
	return x, y
}

func TestCrossValidateNB(t *testing.T) {
	x, y := makeBlobs(400, 1)
	m, err := CrossValidate(func() ml.Classifier { return &bayes.GaussianNB{} }, x, y, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != 400 {
		t.Fatalf("CV covered %d of 400", m.Total())
	}
	if m.ErrorRate() > 0.1 {
		t.Errorf("CV error = %v on separated blobs", m.ErrorRate())
	}
}

func TestCrossValidateStandardizes(t *testing.T) {
	// The blob features deliberately live on a huge offset/scale; the
	// RFF-SVM only works if CrossValidate standardizes internally.
	x, y := makeBlobs(400, 3)
	m, err := CrossValidate(func() ml.Classifier { return &svm.RFFSVM{Seed: 4} }, x, y, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.ErrorRate() > 0.12 {
		t.Errorf("CV error = %v — standardization missing?", m.ErrorRate())
	}
}

func TestTrainAndTestConstantClass(t *testing.T) {
	// All-occupied training cluster: the evaluator must degrade to a
	// constant predictor instead of failing (the paper's "binary"
	// clusters).
	trainX := [][]float64{{1}, {2}, {3}}
	trainY := []int{ml.Negative, ml.Negative, ml.Negative}
	testX := [][]float64{{1.5}, {2.5}}
	testY := []int{ml.Negative, ml.Positive}
	m, err := TrainAndTest(&bayes.GaussianNB{}, trainX, trainY, testX, testY)
	if err != nil {
		t.Fatal(err)
	}
	if m.TN != 1 || m.FN != 1 || m.TP != 0 || m.FP != 0 {
		t.Errorf("constant-class metrics: %+v", m)
	}
}

func TestTrainAndTestValidation(t *testing.T) {
	if _, err := TrainAndTest(&bayes.GaussianNB{}, nil, nil, nil, nil); err == nil {
		t.Error("empty training set must fail")
	}
	if _, err := TrainAndTest(&bayes.GaussianNB{},
		[][]float64{{1}}, []int{1}, [][]float64{{1}}, nil); err == nil {
		t.Error("test length mismatch must fail")
	}
}

func TestCrossValidateDeterminism(t *testing.T) {
	x, y := makeBlobs(200, 6)
	run := func() Metrics {
		m, err := CrossValidate(func() ml.Classifier { return &svm.Pegasos{Seed: 7} }, x, y, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if run() != run() {
		t.Error("same seeds must give identical CV metrics")
	}
}
