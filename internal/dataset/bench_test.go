package dataset

import (
	"testing"
)

// BenchmarkLabelReadings measures Algorithm 1 at full campaign scale
// (5,282 readings, 6 km neighborhoods via the spatial grid).
func BenchmarkLabelReadings(b *testing.B) {
	readings := randomSet(1, 5282)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LabelReadings(readings, LabelConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
