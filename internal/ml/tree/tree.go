// Package tree implements a CART decision-tree classifier (Gini impurity,
// axis-aligned splits). The paper tried decision trees, observed ~1%
// error, and rejected them as overfitting artifacts of road-following data
// (§3.2) — the ablation benches reproduce that comparison.
package tree

import (
	"fmt"
	"sort"

	"github.com/wsdetect/waldo/internal/ml"
)

// CART is a binary classification tree.
type CART struct {
	// MaxDepth bounds tree height; default 12.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf; default 2.
	MinLeaf int

	root *node
	dim  int
}

var _ ml.Classifier = (*CART)(nil)

type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	label     int // for leaves
	leaf      bool
}

// Fit implements ml.Classifier.
func (t *CART) Fit(x [][]float64, y []int) error {
	if t.MaxDepth == 0 {
		t.MaxDepth = 12
	}
	if t.MinLeaf == 0 {
		t.MinLeaf = 2
	}
	if t.MaxDepth < 1 || t.MinLeaf < 1 {
		return fmt.Errorf("tree: invalid hyperparameters depth=%d minLeaf=%d", t.MaxDepth, t.MinLeaf)
	}
	dim, err := ml.CheckTrainingSet(x, y)
	if err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.dim = dim
	t.root = t.build(x, y, idx, 0)
	return nil
}

func majority(y []int, idx []int) int {
	var vote int
	for _, i := range idx {
		vote += y[i]
	}
	if vote > 0 {
		return ml.Positive
	}
	return ml.Negative
}

// depthToFeature rotates fallback splits through the features.
func depthToFeature(depth, dim int) int { return depth % dim }

func gini(pos, total int) float64 {
	if total == 0 {
		return 0
	}
	p := float64(pos) / float64(total)
	return 2 * p * (1 - p)
}

func (t *CART) build(x [][]float64, y []int, idx []int, depth int) *node {
	pos := 0
	for _, i := range idx {
		if y[i] == ml.Positive {
			pos++
		}
	}
	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf || pos == 0 || pos == len(idx) {
		return &node{leaf: true, label: majority(y, idx)}
	}

	bestFeature, bestThreshold, bestImpurity := -1, 0.0, gini(pos, len(idx))
	order := make([]int, len(idx))
	for f := 0; f < t.dim; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		leftPos := 0
		for split := 1; split < len(order); split++ {
			if y[order[split-1]] == ml.Positive {
				leftPos++
			}
			if x[order[split]][f] == x[order[split-1]][f] {
				continue
			}
			if split < t.MinLeaf || len(order)-split < t.MinLeaf {
				continue
			}
			wl := float64(split) / float64(len(order))
			imp := wl*gini(leftPos, split) + (1-wl)*gini(pos-leftPos, len(order)-split)
			if imp < bestImpurity-1e-12 {
				bestImpurity = imp
				bestFeature = f
				bestThreshold = (x[order[split]][f] + x[order[split-1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		// No split with positive Gini gain. XOR-like structure still
		// needs a split for the children to resolve, so fall back to a
		// balanced median split on a rotating feature; depth and leaf
		// bounds keep the recursion finite.
		f := depthToFeature(depth, t.dim)
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		mid := len(order) / 2
		lo, hi := x[order[mid-1]][f], x[order[mid]][f]
		if lo == hi {
			return &node{leaf: true, label: majority(y, idx)}
		}
		bestFeature = f
		bestThreshold = (lo + hi) / 2
	}

	var left, right []int
	for _, i := range idx {
		if x[i][bestFeature] < bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &node{leaf: true, label: majority(y, idx)}
	}
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      t.build(x, y, left, depth+1),
		right:     t.build(x, y, right, depth+1),
	}
}

// Predict implements ml.Classifier.
func (t *CART) Predict(x []float64) (int, error) {
	if t.root == nil {
		return 0, fmt.Errorf("tree: model not fitted")
	}
	if len(x) != t.dim {
		return 0, fmt.Errorf("tree: input dim %d, model dim %d", len(x), t.dim)
	}
	n := t.root
	for !n.leaf {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label, nil
}
