package geo

import (
	"math/rand"
	"testing"
)

func BenchmarkHaversine(b *testing.B) {
	p := Point{Lat: 33.7, Lon: -84.4}
	q := Point{Lat: 33.8, Lon: -84.3}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.DistanceM(q)
	}
	_ = sink
}

func BenchmarkGridWithinRadius(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 5282)
	for i := range pts {
		pts[i] = atlanta.Offset(rng.Float64()*360, rng.Float64()*13000)
	}
	g, err := NewGridIndex(atlanta, 6000, pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		g.WithinRadius(pts[i%len(pts)], 6000, func(int) bool {
			count++
			return true
		})
	}
	_ = count
}
