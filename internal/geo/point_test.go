package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// atlanta is used as a realistic metro anchor in tests.
var atlanta = Point{Lat: 33.749, Lon: -84.388}

func TestDistanceMZero(t *testing.T) {
	if d := atlanta.DistanceM(atlanta); d != 0 {
		t.Fatalf("distance to self = %v, want 0", d)
	}
}

func TestDistanceMKnownPairs(t *testing.T) {
	tests := []struct {
		name  string
		a, b  Point
		wantM float64
		tolM  float64
	}{
		{
			name:  "atlanta to athens GA",
			a:     atlanta,
			b:     Point{Lat: 33.951, Lon: -83.357},
			wantM: 97500,
			tolM:  2500,
		},
		{
			name:  "one degree of latitude",
			a:     Point{Lat: 33, Lon: -84},
			b:     Point{Lat: 34, Lon: -84},
			wantM: 111195,
			tolM:  200,
		},
		{
			name:  "equator one degree longitude",
			a:     Point{Lat: 0, Lon: 0},
			b:     Point{Lat: 0, Lon: 1},
			wantM: 111195,
			tolM:  200,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.DistanceM(tt.b)
			if math.Abs(got-tt.wantM) > tt.tolM {
				t.Errorf("DistanceM = %.0f, want %.0f ± %.0f", got, tt.wantM, tt.tolM)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(aLat, aLon, bLat, bLon float64) bool {
		a := Point{Lat: clampLat(aLat), Lon: clampLon(aLon)}
		b := Point{Lat: clampLat(bLat), Lon: clampLon(bLon)}
		d1 := a.DistanceM(b)
		d2 := b.DistanceM(a)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	f := func(bearing, dist float64) bool {
		b := math.Mod(math.Abs(bearing), 360)
		d := math.Mod(math.Abs(dist), 50000) // metro scale
		q := atlanta.Offset(b, d)
		back := q.DistanceM(atlanta)
		return math.Abs(back-d) < 1.0 // sub-meter at 50 km scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOffsetBearing(t *testing.T) {
	north := atlanta.Offset(0, 10000)
	if north.Lat <= atlanta.Lat {
		t.Errorf("north offset should increase latitude: %v -> %v", atlanta, north)
	}
	east := atlanta.Offset(90, 10000)
	if east.Lon <= atlanta.Lon {
		t.Errorf("east offset should increase longitude: %v -> %v", atlanta, east)
	}
	if b := atlanta.BearingDeg(north); math.Abs(b) > 0.5 && math.Abs(b-360) > 0.5 {
		t.Errorf("bearing to north point = %v, want ~0", b)
	}
}

func TestPointValid(t *testing.T) {
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, tt := range tests {
		if got := tt.p.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func clampLat(v float64) float64 { return math.Mod(math.Abs(v), 80) }
func clampLon(v float64) float64 { return math.Mod(math.Abs(v), 170) }
