package dataset

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/geo"
)

// bruteForceLabels is Algorithm 1 as written: every reading against every
// other, on the coordinates LabelReadings projects them to.
func bruteForceLabels(readings []Reading, cfg LabelConfig) []Label {
	cfg = cfg.withDefaults()
	proj := geo.NewProjector(readings[0].Loc)
	xy := make([]geo.XY, len(readings))
	hot := make([]bool, len(readings))
	for i := range readings {
		xy[i] = proj.ToXY(readings[i].Loc)
		hot[i] = cfg.effectiveRSS(&readings[i]) > cfg.ThresholdDBm
	}
	r2 := cfg.ProtectRadiusM * cfg.ProtectRadiusM
	labels := make([]Label, len(readings))
	for i := range readings {
		labels[i] = LabelSafe
		for j := range readings {
			dx, dy := xy[j].X-xy[i].X, xy[j].Y-xy[i].Y
			if hot[j] && dx*dx+dy*dy <= r2 {
				labels[i] = LabelNotSafe
				break
			}
		}
	}
	return labels
}

// TestEffectiveRSSComposition: Algorithm 1 thresholds the RSS plus the
// uniform correction, whatever height the reading reports.
func TestEffectiveRSSComposition(t *testing.T) {
	cfg := LabelConfig{CorrectionDB: 3}.withDefaults()
	r := mkReading(0, testOrigin, -90)
	for _, alt := range []float64{0, 2, 10, 30} {
		r.AltM = alt
		if got := cfg.effectiveRSS(&r); got != -87 {
			t.Errorf("alt %v m: effective RSS = %v, want −87 (correction only)", alt, got)
		}
	}
}

func checkAgainstBruteForce(t *testing.T, name string, readings []Reading, cfg LabelConfig) []Label {
	t.Helper()
	got, err := LabelReadings(readings, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := bruteForceLabels(readings, cfg); !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: reading %d of %d at %v labelled %v, the double loop says %v",
					name, i, len(readings), readings[i].Loc, got[i], want[i])
			}
		}
	}
	return got
}

// TestLabelReadingsMatchesBruteForce holds the indexed labeller to the
// definition: at the paper's scale, on random small sets, and on the
// shapes the dense cell table has to get right.
func TestLabelReadingsMatchesBruteForce(t *testing.T) {
	origin := testOrigin

	// A 5 282-point drive at ≈ 25 m spacing that wanders across the
	// metro, quiet except near three transmitters.
	rng := rand.New(rand.NewSource(5))
	towers := []geo.Point{origin.Offset(40, 9000), origin.Offset(200, 14000), origin.Offset(300, 4000)}
	route := make([]Reading, 5282)
	at, heading := origin, 0.0
	for i := range route {
		heading += rng.NormFloat64() * 12
		at = at.Offset(heading, 20+rng.Float64()*10)
		rss := -100 + rng.NormFloat64()*4
		for _, tw := range towers {
			if at.DistanceM(tw) < 1500 {
				rss += 25
			}
		}
		route[i] = mkReading(i, at, rss)
	}
	labels := checkAgainstBruteForce(t, "route", route, LabelConfig{})
	if safe, notSafe := CountLabels(labels); safe == 0 || notSafe == 0 {
		t.Fatalf("route labels are one class (%d safe, %d not): the comparison needs both", safe, notSafe)
	}

	for trial := 0; trial < 200; trial++ {
		set := randomSet(int64(trial), 1+rng.Intn(120))
		cfg := LabelConfig{
			ThresholdDBm:   -110 + rng.Float64()*45, // from all hot to none
			ProtectRadiusM: 50 + rng.Float64()*12000,
		}
		checkAgainstBruteForce(t, "random set", set, cfg)
	}

	set := randomSet(9, 300)
	checkAgainstBruteForce(t, "no hot reading", set, LabelConfig{ThresholdDBm: -60})
	checkAgainstBruteForce(t, "every reading hot", set, LabelConfig{ThresholdDBm: -120})
	one := slices.Clone(set)
	for i := range one {
		one[i].Signal.RSSdBm = -100
	}
	one[137].Signal.RSSdBm = -50
	checkAgainstBruteForce(t, "one hot reading", one, LabelConfig{})
	// A radius far larger than the set: one cell holds every point.
	checkAgainstBruteForce(t, "one cell", set, LabelConfig{ProtectRadiusM: 500000})

	// Due north of a quiet reading, a hot one at exactly the radius: the
	// rule is ≤. One ulp less and it is out of reach.
	north := geo.Point{Lat: origin.Lat + 0.05, Lon: origin.Lon}
	r := geo.NewProjector(origin).ToXY(north).Y
	pair := []Reading{mkReading(0, origin, -100), mkReading(1, north, -50)}
	if got := checkAgainstBruteForce(t, "at the radius", pair, LabelConfig{ProtectRadiusM: r}); got[0] != LabelNotSafe {
		t.Errorf("a hot reading at exactly the radius (%v m) left its neighbour %v", r, got[0])
	}
	if got := checkAgainstBruteForce(t, "an ulp inside the radius", pair, LabelConfig{ProtectRadiusM: math.Nextafter(r, 0)}); got[0] != LabelSafe {
		t.Errorf("a hot reading an ulp past the radius made its neighbour %v", got[0])
	}

	// Hot readings on every continent at a 100 m radius: 50 m cells over
	// that bounding box would be ~10¹¹ table entries; the cell doubles.
	world := make([]Reading, 400)
	for i := range world {
		loc := geo.Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*350 - 175}
		if i%2 == 1 { // a quiet neighbour on either side of the radius
			loc = world[i-1].Loc.Offset(rng.Float64()*360, 50+rng.Float64()*100)
		}
		world[i] = mkReading(i, loc, []float64{-50, -100}[i%2])
	}
	checkAgainstBruteForce(t, "world-spanning set", world, LabelConfig{ProtectRadiusM: 100})
}

// TestLabelReadingsRejectsInvalidLocation: a location that is not a
// coordinate is within radius of nothing, itself included, so labelling
// it at all would call a decodable reading Safe.
func TestLabelReadingsRejectsInvalidLocation(t *testing.T) {
	ok := testOrigin
	for _, bad := range []geo.Point{
		{Lat: math.NaN(), Lon: ok.Lon}, {Lat: ok.Lat, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: ok.Lon}, {Lat: math.Inf(-1), Lon: ok.Lon},
		{Lat: ok.Lat, Lon: math.Inf(1)}, {Lat: ok.Lat, Lon: math.Inf(-1)},
	} {
		labels, err := LabelReadings([]Reading{mkReading(0, ok, -100), mkReading(1, bad, -40)}, LabelConfig{})
		if err == nil {
			t.Errorf("location %v: labelled %v with no error", bad, labels)
		} else if !strings.Contains(err.Error(), "reading 1 ") {
			t.Errorf("location %v: error %q does not name reading 1", bad, err)
		}
	}
}
