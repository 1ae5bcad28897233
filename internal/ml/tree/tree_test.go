package tree

import (
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/ml"
)

func xorData(n int, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		x = append(x, []float64{a, b})
		if (a > 0) == (b > 0) {
			y = append(y, ml.Positive)
		} else {
			y = append(y, ml.Negative)
		}
	}
	return x, y
}

func TestCARTSolvesXOR(t *testing.T) {
	// XOR defeats linear models but is trivial for a depth-2 tree.
	x, y := xorData(600, 1)
	c := &CART{MaxDepth: 10, MinLeaf: 5}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	testX, testY := xorData(300, 2)
	correct := 0
	for i := range testX {
		pred, err := c.Predict(testX[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testX)); acc < 0.95 {
		t.Errorf("CART XOR accuracy = %v", acc)
	}
}

// depth is the height of a fitted tree (0 for a single leaf).
func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func TestCARTDepthLimit(t *testing.T) {
	x, y := xorData(400, 3)
	shallow := &CART{MaxDepth: 1}
	if err := shallow.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if d := depth(shallow.root); d > 1 {
		t.Errorf("depth = %d, want ≤ 1", d)
	}
	deep := &CART{MaxDepth: 8}
	if err := deep.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if depth(deep.root) <= depth(shallow.root) {
		t.Errorf("deep tree (%d) should be deeper than stump (%d)", depth(deep.root), depth(shallow.root))
	}
}

func TestCARTMinLeaf(t *testing.T) {
	x, y := xorData(100, 4)
	c := &CART{MaxDepth: 20, MinLeaf: 40}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 40 of 100 points, at most one split is possible.
	if d := depth(c.root); d > 2 {
		t.Errorf("depth = %d with MinLeaf=40", d)
	}
}

func TestCARTValidation(t *testing.T) {
	c := &CART{}
	if err := c.Fit(nil, nil); err == nil {
		t.Error("empty fit must fail")
	}
	if _, err := c.Predict([]float64{1}); err == nil {
		t.Error("predict before fit must fail")
	}
	if err := (&CART{MaxDepth: -1}).Fit([][]float64{{1}, {2}}, []int{1, -1}); err == nil {
		t.Error("negative depth must fail")
	}
	x, y := xorData(50, 5)
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict([]float64{1, 2, 3}); err == nil {
		t.Error("dim mismatch must fail")
	}
}

func TestCARTOverfitsRoadData(t *testing.T) {
	// The paper's observation (§3.2): trees nail the training data
	// (≈1% error) on sparse road-following datasets — a red flag for
	// overfitting. Verify the memorization half: training error ≈ 0 even
	// on noisy labels.
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64()})
		if rng.Float64() < 0.5 {
			y = append(y, ml.Positive)
		} else {
			y = append(y, ml.Negative)
		}
	}
	c := &CART{MaxDepth: 40, MinLeaf: 1}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if pred, _ := c.Predict(x[i]); pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.99 {
		t.Errorf("unbounded tree should memorize noise: training accuracy %v", acc)
	}
}
