package geoindex

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// reading is one RTL-SDR reading on channel 47 at p, hot or not.
func reading(p geo.Point, hot bool) dataset.Reading {
	rss := -100.0
	if hot {
		rss = -70
	}
	return dataset.Reading{Loc: p, Channel: 47, Sensor: sensor.KindRTLSDR,
		Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13}}
}

// buildOne builds the grid of one store holding rs.
func buildOne(rs []dataset.Reading) *Snapshot {
	st := StoreSnapshot{Channel: 47, Sensor: sensor.KindRTLSDR, ModelVersion: 1, Readings: [][]dataset.Reading{rs}}
	return New(Config{Source: func() []StoreSnapshot { return []StoreSnapshot{st} }}).Rebuild(context.Background())
}

// boundary samples a cell's edges every ~28 m, corners included.
func boundary(c Cell) []geo.Point {
	const n = 200
	lat0, lon0 := float64(c.X)*DefaultCellDeg, float64(c.Y)*DefaultCellDeg
	out := make([]geo.Point, 0, 4*(n+1))
	for i := 0; i <= n; i++ {
		f := DefaultCellDeg * float64(i) / n
		out = append(out,
			geo.Point{Lat: lat0, Lon: lon0 + f}, geo.Point{Lat: lat0 + DefaultCellDeg, Lon: lon0 + f},
			geo.Point{Lat: lat0 + f, Lon: lon0}, geo.Point{Lat: lat0 + f, Lon: lon0 + DefaultCellDeg})
	}
	return out
}

// TestPropertyRuleMatchesNaiveReference: over random stores — in the
// metro, near the pole and across the antimeridian, where the candidate
// index steps aside — every verdict equals the rule applied by brute
// force: occupied when a hot reading lies inside the cell, uncertain
// when gapM puts one within 6 km, free otherwise. A free verdict is
// also checked against the sphere: no hot reading lies within 6 km of
// any point of a dense sampling of the cell's boundary. And gapM never
// exceeds that sampled distance, for every hot reading within 12 km.
func TestPropertyRuleMatchesNaiveReference(t *testing.T) {
	const radiusM = 6000
	places := []geo.Point{rfenv.MetroCenter, {Lat: 71.3, Lon: 24.1}, {Lat: -12.4, Lon: 179.99}}
	verdicts := map[Status]int{}
	for seed := int64(0); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		center := places[seed%int64(len(places))]
		spread := 3000 + rng.Float64()*25000
		hotShare := []float64{0, 0.02, 0.1, 0.5}[rng.Intn(4)]
		rs := make([]dataset.Reading, 150+rng.Intn(150))
		for i := range rs {
			rs[i] = reading(center.Offset(rng.Float64()*360, spread*math.Sqrt(rng.Float64())), rng.Float64() < hotShare)
		}
		var hot []geo.Point
		for _, r := range rs {
			if r.Signal.RSSdBm > -84 {
				hot = append(hot, r.Loc)
			}
		}
		snap := buildOne(rs)
		for cell, vs := range snap.cells {
			got := vs[0].Status
			verdicts[got]++
			want := StatusFree
			for _, h := range hot {
				if CellOf(h, DefaultCellDeg) == cell {
					want = StatusOccupied
					break
				}
				if gapM(h, cell) <= radiusM {
					want = StatusUncertain
				}
			}
			if got != want {
				t.Fatalf("seed %d cell %+v: %v, the naive rule says %v", seed, cell, got, want)
			}
			edge := boundary(cell)
			for _, h := range hot {
				if CellOf(h, DefaultCellDeg) == cell || gapM(h, cell) > 2*radiusM {
					continue // inside, or too far to sway a verdict
				}
				nearest := math.Inf(1)
				for _, p := range edge {
					nearest = min(nearest, h.DistanceM(p))
				}
				// Where the nearest sample is the point gapM measures to,
				// the two agree to float rounding: allow a micrometer.
				if g := gapM(h, cell); g > nearest+1e-6 {
					t.Fatalf("seed %d cell %+v: gapM %.3f m from %v, the boundary comes to %.3f m", seed, cell, g, h, nearest)
				}
				if got == StatusFree && nearest <= radiusM {
					t.Fatalf("seed %d cell %+v free, but hot reading %v lies %.1f m from its boundary", seed, cell, h, nearest)
				}
			}
		}
	}
	for _, s := range []Status{StatusFree, StatusOccupied, StatusUncertain} {
		if verdicts[s] == 0 {
			t.Errorf("no %v verdict over the random stores: %v", s, verdicts)
		}
	}
}

// TestRulePinnedDistances: a metro cell whose one reading is not hot,
// and one hot reading 5 999 m or 6 001 m (great-circle) outside an edge
// or a corner: uncertain inside the radius, free beyond it.
func TestRulePinnedDistances(t *testing.T) {
	cell := CellOf(rfenv.MetroCenter, DefaultCellDeg)
	lat0, lon0 := float64(cell.X)*DefaultCellDeg, float64(cell.Y)*DefaultCellDeg
	lat1, lon1 := lat0+DefaultCellDeg, lon0+DefaultCellDeg
	inside := geo.Point{Lat: (lat0 + lat1) / 2, Lon: (lon0 + lon1) / 2}
	for _, from := range []struct {
		name       string
		at         geo.Point
		bearingDeg float64
	}{
		{"north edge", geo.Point{Lat: lat1, Lon: inside.Lon}, 0},
		{"east edge", geo.Point{Lat: inside.Lat, Lon: lon1}, 90},
		{"north-east corner", geo.Point{Lat: lat1, Lon: lon1}, 45},
		{"south-west corner", geo.Point{Lat: lat0, Lon: lon0}, 225},
	} {
		for _, c := range []struct {
			distM float64
			want  Status
		}{{5999, StatusUncertain}, {6001, StatusFree}} {
			h := from.at.Offset(from.bearingDeg, c.distM)
			if d := h.DistanceM(from.at); math.Abs(d-c.distM) > 0.01 {
				t.Fatalf("%s: the hot reading lies %.3f m away, want %v", from.name, d, c.distM)
			}
			got := buildOne([]dataset.Reading{reading(inside, false), reading(h, true)}).Lookup(cell)
			if len(got) != 1 || got[0].Status != c.want {
				t.Errorf("hot reading %.0f m from the %s: %+v, want %v", c.distM, from.name, got, c.want)
			}
		}
	}
}

// metroStores is the bench campaign (metro seed 42, route 43, campaign
// 44, RTL-SDR) at 1 000 readings a channel, one store per channel.
var metroStores = sync.OnceValues(func() ([]StoreSnapshot, error) {
	env, err := rfenv.BuildMetro(42)
	if err != nil {
		return nil, err
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: 1000, Seed: 43})
	if err != nil {
		return nil, err
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route, Sensors: []sensor.Spec{sensor.RTLSDR()},
		Channels: []rfenv.Channel{15, 17, 21, 22, 27, 30, 39, 46, 47}, Seed: 44,
	})
	if err != nil {
		return nil, err
	}
	var out []StoreSnapshot
	for _, ch := range camp.Channels {
		out = append(out, StoreSnapshot{Channel: ch, Sensor: sensor.KindRTLSDR, ModelVersion: 1,
			Readings: [][]dataset.Reading{camp.Readings(ch, sensor.KindRTLSDR)}})
	}
	return out, nil
})

// BenchmarkGridRebuild is one rebuild after a retrain: nine stores of
// 1 000 bench-campaign readings each. cpu-ns/op is the process's CPU
// per rebuild, steadier than ns/op on a shared host.
func BenchmarkGridRebuild(b *testing.B) {
	stores, err := metroStores()
	if err != nil {
		b.Fatal(err)
	}
	x := New(Config{Source: func() []StoreSnapshot { return stores }})
	b.ReportAllocs()
	b.ResetTimer()
	cpu := selfCPU()
	for i := 0; i < b.N; i++ {
		x.Rebuild(context.Background())
	}
	b.ReportMetric(float64(selfCPU()-cpu)/float64(b.N), "cpu-ns/op")
	b.ReportMetric(float64(x.Snapshot().Entries()), "entries")
}

// selfCPU is the process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
