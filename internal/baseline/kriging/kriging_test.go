package kriging

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// smoothField generates readings of a smooth spatial field with known
// values: RSS = −90 + 20·sin(x/4km)·cos(y/4km) + noise.
func smoothField(n int, noise float64, seed int64) []dataset.Reading {
	rng := rand.New(rand.NewSource(seed))
	origin := rfenv.MetroCenter
	proj := geo.NewProjector(origin)
	out := make([]dataset.Reading, n)
	for i := range out {
		loc := origin.Offset(rng.Float64()*360, rng.Float64()*9000)
		xy := proj.ToXY(loc)
		rss := fieldAt(xy) + rng.NormFloat64()*noise
		out[i] = dataset.Reading{
			Seq: i, Loc: loc, Channel: 30, Sensor: sensor.KindSpectrumAnalyzer,
			Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
		}
	}
	return out
}

func fieldAt(xy geo.XY) float64 {
	return -90 + 20*math.Sin(xy.X/4000)*math.Cos(xy.Y/4000)
}

func TestKrigingInterpolatesSmoothField(t *testing.T) {
	readings := smoothField(1500, 0.5, 1)
	m, err := Fit(readings)
	if err != nil {
		t.Fatal(err)
	}
	proj := geo.NewProjector(rfenv.MetroCenter)
	rng := rand.New(rand.NewSource(2))
	var sumAbs float64
	const trials = 100
	for i := 0; i < trials; i++ {
		p := rfenv.MetroCenter.Offset(rng.Float64()*360, rng.Float64()*7000)
		est, err := m.PredictRSS(p)
		if err != nil {
			t.Fatal(err)
		}
		sumAbs += math.Abs(est - fieldAt(proj.ToXY(p)))
	}
	if mae := sumAbs / trials; mae > 2.5 {
		t.Errorf("kriging MAE = %.2f dB on a smooth field, want < 2.5", mae)
	}
}

func TestKrigingBeatsIDWOnStructuredField(t *testing.T) {
	readings := smoothField(1500, 0.5, 3)
	km, err := Fit(readings)
	if err != nil {
		t.Fatal(err)
	}
	idw, err := FitIDW(readings)
	if err != nil {
		t.Fatal(err)
	}
	proj := geo.NewProjector(rfenv.MetroCenter)
	rng := rand.New(rand.NewSource(4))
	var kSum, iSum float64
	const trials = 120
	for i := 0; i < trials; i++ {
		p := rfenv.MetroCenter.Offset(rng.Float64()*360, rng.Float64()*7000)
		ke, err := km.PredictRSS(p)
		if err != nil {
			t.Fatal(err)
		}
		ie, err := idw.PredictRSS(p)
		if err != nil {
			t.Fatal(err)
		}
		truth := fieldAt(proj.ToXY(p))
		kSum += math.Abs(ke - truth)
		iSum += math.Abs(ie - truth)
	}
	// Kriging should be at least as accurate as inverse-square IDW on a
	// field with real spatial correlation.
	if kSum > iSum*1.1 {
		t.Errorf("kriging MAE %.2f vs IDW %.2f: kriging should not lose", kSum/trials, iSum/trials)
	}
}

func TestVariogramShape(t *testing.T) {
	readings := smoothField(1500, 0.5, 5)
	m, err := Fit(readings)
	if err != nil {
		t.Fatal(err)
	}
	v := m.vario
	if v.Sill <= 0 || v.RangeM <= 0 {
		t.Fatalf("degenerate variogram %+v", v)
	}
	// Monotone non-decreasing, zero at zero.
	if v.At(0) != 0 {
		t.Error("γ(0) must be 0")
	}
	prev := -1.0
	for h := 100.0; h <= 10000; h += 100 {
		g := v.At(h)
		if g < prev {
			t.Fatalf("variogram not monotone at %v", h)
		}
		prev = g
	}
}

func TestAvailableProtective(t *testing.T) {
	// A field that is loud in the east and quiet in the west.
	rng := rand.New(rand.NewSource(6))
	origin := rfenv.MetroCenter
	var readings []dataset.Reading
	for i := 0; i < 1500; i++ {
		loc := origin.Offset(rng.Float64()*360, rng.Float64()*10000)
		rss := -100.0
		if loc.Lon > origin.Lon {
			rss = -70
		}
		readings = append(readings, dataset.Reading{
			Seq: i, Loc: loc, Channel: 30, Sensor: sensor.KindSpectrumAnalyzer,
			Signal: features.Signal{RSSdBm: rss + rng.NormFloat64()},
		})
	}
	m, err := Fit(readings)
	if err != nil {
		t.Fatal(err)
	}
	// Deep east: occupied. Deep west but within 6 km of the boundary:
	// denied by the ring probes. Far west: available.
	if ok, _ := m.Available(origin.Offset(90, 8000)); ok {
		t.Error("occupied east declared available")
	}
	if ok, _ := m.Available(origin.Offset(270, 2000)); ok {
		t.Error("west point within 6 km of occupied region declared available")
	}
	if ok, _ := m.Available(origin.Offset(270, 9000)); !ok {
		t.Error("deep west should be available")
	}
	// Outside coverage entirely: conservative denial.
	if ok, _ := m.Available(origin.Offset(0, 80000)); ok {
		t.Error("unmeasured area must be denied")
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty fit must fail")
	}
	readings := smoothField(100, 1, 7)
	mixed := append(readings[:0:0], readings...)
	mixed[10].Channel = 15
	if _, err := Fit(mixed); err == nil {
		t.Error("mixed channels must fail")
	}
	// Prediction far outside coverage fails.
	m, err := Fit(readings)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictRSS(rfenv.MetroCenter.Offset(0, 200000)); err == nil {
		t.Error("prediction without neighbors must fail")
	}
}

func TestSolve(t *testing.T) {
	// 2x + y = 5; x − y = 1 → x = 2, y = 1.
	a := [][]float64{
		{2, 1, 5},
		{1, -1, 1},
	}
	x, err := solve(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("solve = %v", x)
	}
	singular := [][]float64{
		{1, 1, 2},
		{2, 2, 4},
	}
	if _, err := solve(singular); err == nil {
		t.Error("singular system must fail")
	}
}
