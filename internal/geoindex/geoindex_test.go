package geoindex

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// synthSplit generates readings within 20 km of the metro center with a
// sharp east/west occupancy split: east of the center's meridian the
// channel is occupied (strong RSS, hot under Algorithm 1), west it is
// free.
func synthSplit(n int, ch rfenv.Channel, seed int64) []dataset.Reading {
	rng := rand.New(rand.NewSource(seed))
	origin := rfenv.MetroCenter
	out := make([]dataset.Reading, 0, n)
	for i := 0; i < n; i++ {
		loc := origin.Offset(rng.Float64()*360, rng.Float64()*20000)
		rss := -100.0
		if loc.Lon > origin.Lon {
			rss = -70
		}
		out = append(out, dataset.Reading{
			Seq: i, Loc: loc, Channel: ch, Sensor: sensor.KindRTLSDR,
			Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
		})
	}
	return out
}

// trainedStore is the index input for a store trained (version 1) on
// the synthetic split.
func trainedStore(ch rfenv.Channel, seed int64) StoreSnapshot {
	return StoreSnapshot{
		Channel: ch, Sensor: sensor.KindRTLSDR, ModelVersion: 1,
		Readings: [][]dataset.Reading{synthSplit(1600, ch, seed)},
	}
}

func TestCellOfGolden(t *testing.T) {
	cases := []struct {
		lat, lon, deg float64
		want          Cell
	}{
		{0, 0, 0.05, Cell{0, 0}},
		{0.049999, 0.049999, 0.05, Cell{0, 0}},
		// Exact cell edges belong to the cell they open.
		{0.05, 0.05, 0.05, Cell{1, 1}},
		{-0.05, -0.05, 0.05, Cell{-1, -1}},
		// Negative coordinates floor away from zero: no double-width
		// cell straddling the equator/prime meridian.
		{-0.01, -0.01, 0.05, Cell{-1, -1}},
		// Antimeridian neighbors quantize to adjacent-most extremes.
		{10, 179.99, 0.05, Cell{200, 3599}},
		{10, -180, 0.05, Cell{200, -3600}},
		// cellDeg <= 0 falls back to the default quantum.
		{1.0, 2.0, 0, Cell{20, 40}},
	}
	for _, c := range cases {
		got := CellOf(geo.Point{Lat: c.lat, Lon: c.lon}, c.deg)
		if got != c.want {
			t.Errorf("CellOf(%v,%v @ %v) = %+v, want %+v", c.lat, c.lon, c.deg, got, c.want)
		}
	}
}

func TestBuildDerivesVerdicts(t *testing.T) {
	st := trainedStore(47, 1)
	x := New(Config{Source: func() []StoreSnapshot { return []StoreSnapshot{st} }})
	snap := x.Rebuild(context.Background())

	if snap.Generation != 1 {
		t.Fatalf("generation = %d, want 1", snap.Generation)
	}
	if snap.Cells() == 0 || snap.Entries() == 0 {
		t.Fatalf("empty grid: %d cells, %d entries", snap.Cells(), snap.Entries())
	}
	if snap.Stores != 1 {
		t.Fatalf("stores = %d, want 1", snap.Stores)
	}

	// Deep west must read free, east occupied (the synthetic field
	// splits occupancy on the origin's meridian). The west probe's cell
	// ends at least 10 km west of the meridian, beyond the 6 km radius.
	west := rfenv.MetroCenter.Offset(270, 15000)
	east := rfenv.MetroCenter.Offset(90, 6000)
	checkStatus := func(p geo.Point, want Status) {
		t.Helper()
		cell := CellOf(p, snap.CellDeg)
		entries := snap.Lookup(cell)
		if len(entries) == 0 {
			t.Fatalf("no verdicts at %v", p)
		}
		e := entries[0]
		if e.Channel != 47 || e.Sensor != sensor.KindRTLSDR {
			t.Fatalf("entry identity = %v/%v", e.Channel, e.Sensor)
		}
		if e.Status != want {
			t.Errorf("status at %v = %v, want %v (n=%d)", p, e.Status, want, e.Readings)
		}
		if e.Confidence != 1 {
			t.Errorf("confidence %v, want 1: a verdict is a rule, not a vote", e.Confidence)
		}
		n := 0
		for _, r := range st.Readings[0] {
			if CellOf(r.Loc, snap.CellDeg) == cell {
				n++
			}
		}
		if e.Readings != n {
			t.Errorf("readings = %d, want the %d trained readings inside the cell", e.Readings, n)
		}
		if e.ModelVersion != 1 {
			t.Errorf("model version = %d, want 1", e.ModelVersion)
		}
	}
	checkStatus(west, StatusFree)
	checkStatus(east, StatusOccupied)

	// A cell with no evidence has no entry — unknown, not free.
	if got := snap.Lookup(Cell{X: 9999, Y: 9999}); got != nil {
		t.Errorf("far cell lookup = %v, want nil", got)
	}

	// The deprecated one-slice form builds the same grid.
	legacy := StoreSnapshot{Channel: 47, Sensor: sensor.KindRTLSDR, ModelVersion: 1, Recent: st.Readings[0]}
	got := New(Config{Source: func() []StoreSnapshot { return []StoreSnapshot{legacy} }}).Rebuild(context.Background())
	if !bytes.Equal(EncodeGrid(got), EncodeGrid(snap)) {
		t.Error("a store given as Recent built another grid than the same store given as Readings")
	}
}

func TestScheduleCoalescesAndCloseWaits(t *testing.T) {
	st := trainedStore(47, 3)
	x := New(Config{Source: func() []StoreSnapshot { return []StoreSnapshot{st} }})
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		x.Schedule(ctx)
	}
	x.Close()
	if gen := x.Snapshot().Generation; gen == 0 {
		t.Fatal("no rebuild completed before Close returned")
	}
	// After Close, triggers are ignored.
	gen := x.Snapshot().Generation
	x.Schedule(ctx)
	x.Close()
	if got := x.Snapshot().Generation; got != gen {
		t.Errorf("generation moved to %d after Close, want %d", got, gen)
	}
}

func TestSnapshotStableDuringRebuild(t *testing.T) {
	st := trainedStore(47, 4)
	x := New(Config{Source: func() []StoreSnapshot { return []StoreSnapshot{st} }})
	first := x.Rebuild(context.Background())
	held := x.Snapshot()
	second := x.Rebuild(context.Background())
	if held.Generation != first.Generation {
		t.Fatalf("held snapshot mutated: generation %d", held.Generation)
	}
	if second.Generation <= first.Generation {
		t.Fatalf("rebuild did not advance generation: %d -> %d",
			first.Generation, second.Generation)
	}
	if x.Snapshot().Generation != second.Generation {
		t.Fatalf("serving snapshot is not the newest")
	}
}

// TestQueriesServeWhileRebuildInFlight is the structural form of "the
// rebuild is off the request path": with a Scheduled rebuild parked
// inside its Source, everything a query does — Snapshot, cell Lookup,
// SampleRoute plus a Lookup per segment — answers from the previous
// generation without waiting, further Schedule calls return at once and
// coalesce into exactly one more pass, and releasing the Source
// publishes the new generations.
func TestQueriesServeWhileRebuildInFlight(t *testing.T) {
	st := trainedStore(47, 5)
	var block atomic.Bool
	entered := make(chan struct{}, 2) // the in-flight pass and the coalesced one
	release := make(chan struct{})
	metrics := telemetry.New()
	x := New(Config{Metrics: metrics, Source: func() []StoreSnapshot {
		if block.Load() {
			entered <- struct{}{}
			<-release
		}
		return []StoreSnapshot{st}
	}})
	ctx := context.Background()
	prev := x.Rebuild(ctx)

	block.Store(true)
	x.Schedule(ctx)
	<-entered // the builder goroutine is now parked inside Source

	queried := make(chan int, 1)
	go func() {
		snap := x.Snapshot()
		if snap != prev {
			t.Errorf("serving generation %d during the rebuild, want the previous one (%d)",
				snap.Generation, prev.Generation)
		}
		verdicts := len(snap.Lookup(CellOf(st.Readings[0][0].Loc, DefaultCellDeg)))
		route := []geo.Point{rfenv.MetroCenter.Offset(270, 8000), rfenv.MetroCenter.Offset(90, 8000)}
		for _, seg := range SampleRoute(route, 500, DefaultCellDeg) {
			verdicts += len(snap.Lookup(seg.Cell))
		}
		queried <- verdicts
	}()
	select {
	case verdicts := <-queried:
		if verdicts == 0 {
			t.Error("lookups during the rebuild found no verdicts in the previous generation")
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a query waited on the in-flight rebuild")
	}

	const triggers = 16
	for i := 0; i < triggers; i++ {
		x.Schedule(ctx)
	}
	if got := metrics.Counter("waldo_geoindex_rebuild_coalesced_total", "").Value(); got != triggers {
		t.Errorf("coalesced triggers = %d, want %d", got, triggers)
	}
	if got := x.Snapshot().Generation; got != prev.Generation {
		t.Errorf("generation moved to %d with the source still blocked", got)
	}

	close(release)
	<-entered // the one coalesced pass started; Close would have cancelled it
	x.Close() // waits for the builder
	if got, want := x.Snapshot().Generation, prev.Generation+2; got != want {
		t.Errorf("generation after release = %d, want %d (%d triggers coalesce into one pass)",
			got, want, triggers)
	}
}

func TestSampleRouteSegments(t *testing.T) {
	start := rfenv.MetroCenter.Offset(270, 8000)
	end := rfenv.MetroCenter.Offset(90, 8000)
	mid := rfenv.MetroCenter.Offset(0, 2000)
	points := []geo.Point{start, mid, end}
	segs := SampleRoute(points, 500, DefaultCellDeg)
	if len(segs) < 2 {
		t.Fatalf("16 km route produced %d segments, want >= 2 cells", len(segs))
	}
	for i, s := range segs {
		if s.ExitM < s.EnterM {
			t.Errorf("segment %d spans [%.0f, %.0f]", i, s.EnterM, s.ExitM)
		}
		if i > 0 {
			if s.EnterM != segs[i-1].ExitM {
				t.Errorf("segment %d enters at %.0f, previous exits at %.0f",
					i, s.EnterM, segs[i-1].ExitM)
			}
			if s.Cell == segs[i-1].Cell {
				t.Errorf("segments %d and %d share cell %+v (not coalesced)", i-1, i, s.Cell)
			}
		}
	}
	if segs[0].From != start {
		t.Errorf("first segment starts at %v, want %v", segs[0].From, start)
	}
	if segs[len(segs)-1].To != end {
		t.Errorf("last segment ends at %v, want %v", segs[len(segs)-1].To, end)
	}
	// Determinism: same inputs, identical geometry (the gateway merge
	// contract).
	again := SampleRoute(points, 500, DefaultCellDeg)
	if len(again) != len(segs) {
		t.Fatalf("resample produced %d segments, want %d", len(again), len(segs))
	}
	for i := range segs {
		if segs[i] != again[i] {
			t.Errorf("segment %d differs across identical samplings", i)
		}
	}
	if n, want := SampleCount(points, 500), len(points); n < want {
		t.Errorf("SampleCount = %d, want >= %d", n, want)
	}
}

func TestSampleRouteDegenerate(t *testing.T) {
	if segs := SampleRoute(nil, 0, 0); segs != nil {
		t.Errorf("empty polyline = %v, want nil", segs)
	}
	p := rfenv.MetroCenter
	segs := SampleRoute([]geo.Point{p}, 0, 0)
	if len(segs) != 1 || segs[0].Cell != CellOf(p, DefaultCellDeg) {
		t.Errorf("single waypoint = %+v", segs)
	}
	// Repeated waypoints (zero-length legs) must not divide by zero.
	segs = SampleRoute([]geo.Point{p, p, p}, 0, 0)
	if len(segs) != 1 {
		t.Errorf("degenerate route = %d segments, want 1", len(segs))
	}
}

func TestConfidenceDecay(t *testing.T) {
	if got := ConfidenceDecay(0, 0); got != 1 {
		t.Errorf("no horizon decay = %v, want 1", got)
	}
	short := ConfidenceDecay(60, 0)
	long := ConfidenceDecay(3600, 0)
	if !(short > long && long > 0 && short < 1) {
		t.Errorf("decay not monotone: 60s=%v 3600s=%v", short, long)
	}
}
