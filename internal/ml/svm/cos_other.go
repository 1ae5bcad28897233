//go:build !amd64

package svm

// cosRow is cosRowGo: the vector kernel is amd64 only.
func cosRow(row []float64, scale float64) { cosRowGo(row, scale) }
