// Package geoindex precomputes the availability grid: for every
// quantized geo-cell, which TV channels are free, occupied, or
// uncertain. It is the read-side answer to the query surface Saeed et
// al. argue for ("Towards Dynamic Real-Time Geo-location Databases for
// TV White Spaces"): a WSD — or a route planner — asks "what can I
// transmit on *here*, and along my path?", and the answer must cost a
// map lookup, not a model evaluation.
//
// The grid is derived, not stored. Each verdict is Algorithm 1 asked of
// a cell, over the readings the store's serving model was labelled from
// (its trained prefix): occupied when a hot reading lies inside the
// cell, free when none lies within the protection radius of any point
// of it, uncertain otherwise. The rebuild runs off the request path on
// its own goroutine (snapshot-then-swap): readers load an immutable
// [Snapshot] through an atomic pointer and never contend with a
// rebuild. See DESIGN.md §15.
package geoindex

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// DefaultCellDeg is the geo-cell quantum, the only one: every grid is
// built at it and the cluster routing tier places by it (cluster.CellOf
// delegates here). 0.05° is ~5.5 km of latitude — coarse enough that
// one wardriving neighborhood is one cell, fine enough that a metro
// spans many.
const DefaultCellDeg = 0.05

// Cell is a quantized geographic cell — the unit of both availability
// lookup and cluster routing. X quantizes latitude, Y longitude.
type Cell struct {
	// X is the floor-quantized latitude index.
	X int32
	// Y is the floor-quantized longitude index.
	Y int32
}

// CellOf quantizes a location onto the cell grid by flooring each
// coordinate: negative coordinates round away from zero, so the grid is
// seamless across the equator and the prime meridian, and a point
// exactly on a cell edge belongs to the cell it opens. cellDeg ≤ 0
// means DefaultCellDeg.
func CellOf(p geo.Point, cellDeg float64) Cell {
	if cellDeg <= 0 {
		cellDeg = DefaultCellDeg
	}
	return Cell{
		X: int32(math.Floor(p.Lat / cellDeg)),
		Y: int32(math.Floor(p.Lon / cellDeg)),
	}
}

// Status is a three-way availability verdict for one channel in one
// cell.
type Status uint8

// The availability verdicts, Algorithm 1 asked of a cell over its
// store's hot readings (dataset.LabelConfig.Hot). There is no "unknown"
// value: a channel with no evidence in a cell has no entry in the
// snapshot.
const (
	// StatusFree means no hot reading lies within the protection radius
	// of any point of the cell: Algorithm 1 would label Safe a reading
	// taken anywhere in it.
	StatusFree Status = iota + 1
	// StatusOccupied means a hot reading lies inside the cell.
	StatusOccupied
	// StatusUncertain means a hot reading outside the cell protects part
	// of it: the cell straddles a protection contour, and a WSD should
	// fall back to a local detection pass before transmitting.
	StatusUncertain
)

// String renders the verdict as its wire form ("free", "occupied",
// "uncertain").
func (s Status) String() string {
	switch s {
	case StatusFree:
		return "free"
	case StatusOccupied:
		return "occupied"
	case StatusUncertain:
		return "uncertain"
	default:
		return "unknown"
	}
}

// ChannelAvailability is one (channel, sensor family) verdict within
// one cell.
type ChannelAvailability struct {
	// Channel is the TV-band channel the verdict is about.
	Channel rfenv.Channel
	// Sensor is the sensor family whose store produced the evidence.
	Sensor sensor.Kind
	// Status is the three-way verdict.
	Status Status
	// Confidence is 1 on every built verdict: the verdict is a rule over
	// the evidence, not a vote. A route query's validity horizon
	// discounts it (ConfidenceDecay).
	Confidence float64
	// Readings is the number of the store's trained readings inside the
	// cell.
	Readings int
	// ModelVersion names the trained prefix the verdict was derived
	// from: the version of the model trained on it.
	ModelVersion int
}

// Snapshot is one immutable build of the availability grid. Readers
// obtain it from [Index.Snapshot] and may hold it as long as they like;
// a rebuild never mutates a published snapshot.
type Snapshot struct {
	// CellDeg is the grid quantum the snapshot was built with.
	CellDeg float64
	// Generation counts builds monotonically; 0 is the empty snapshot
	// that serves before the first rebuild completes.
	Generation uint64
	// Stores is the number of trained stores that contributed evidence.
	Stores int

	cells   map[Cell][]ChannelAvailability
	entries int
}

// Lookup returns the verdicts for one cell, sorted by (channel,
// sensor), or nil when the grid has no evidence there. The returned
// slice is shared with the snapshot and must not be mutated.
func (s *Snapshot) Lookup(c Cell) []ChannelAvailability {
	return s.cells[c]
}

// Cells reports how many cells carry at least one verdict.
func (s *Snapshot) Cells() int { return len(s.cells) }

// Entries reports the total number of (cell, channel, sensor) verdicts.
func (s *Snapshot) Entries() int { return s.entries }

// EachStore calls fn once for each (channel, sensor) store the snapshot
// has a verdict from.
func (s *Snapshot) EachStore(fn func(rfenv.Channel, sensor.Kind)) {
	seen := make(map[entryKey]bool)
	for _, vs := range s.cells {
		for _, v := range vs {
			if k := (entryKey{v.Channel, v.Sensor}); !seen[k] {
				seen[k] = true
				fn(k.ch, k.kind)
			}
		}
	}
}

// StoreSnapshot is one trained store's contribution to a rebuild: the
// readings its serving model was labelled from, and that model's
// version. The grid then moves only when the store retrains, as the
// model does.
type StoreSnapshot struct {
	// Channel and Sensor identify the store.
	Channel rfenv.Channel
	// Sensor is the store's sensor family.
	Sensor sensor.Kind
	// ModelVersion is the version of the model trained on Readings.
	ModelVersion int
	// Readings is the store's trained prefix as contiguous runs
	// (core.ReadingView.Chunks), read in place and never written.
	Readings [][]dataset.Reading
	// Deprecated: Recent is read as one more run after Readings.
	Recent []dataset.Reading
	// Deprecated: Model is ignored; the grid classifies nothing.
	Model *core.Model
}

// Config assembles an [Index].
type Config struct {
	// Source supplies the per-store inputs for a rebuild. It is called
	// outside any lock the caller holds during [Index.Schedule], so it
	// may itself take store locks.
	Source func() []StoreSnapshot
	// Metrics, when set, receives the waldo_geoindex_* series; nil
	// disables telemetry (every handle is a nil-safe no-op).
	Metrics *telemetry.Registry
	// Log, when set, receives one structured event per rebuild; nil
	// disables logging.
	Log *wlog.Logger
}

// Index owns the availability grid: it rebuilds snapshots off the
// request path and publishes them through an atomic pointer, so
// [Index.Snapshot] is wait-free and never observes a half-built grid.
type Index struct {
	cfg Config
	lg  *wlog.Logger

	cur atomic.Pointer[Snapshot]
	gen atomic.Uint64

	// published is closed, and replaced, when a newer snapshot is
	// published (pubMu guards the swap).
	pubMu     sync.Mutex
	published chan struct{}

	// mu guards the rebuild scheduler state (one builder goroutine at a
	// time; a Schedule during a build marks it dirty and the builder
	// loops). Schedule is called from journal hooks that run under
	// store locks, so everything under mu must stay O(1).
	mu      sync.Mutex
	running bool
	dirty   bool
	closed  bool
	wg      sync.WaitGroup

	rebuilds       *telemetry.Counter
	coalesced      *telemetry.Counter
	rebuildSeconds *telemetry.Histogram
	cellsGauge     *telemetry.Gauge
	entriesGauge   *telemetry.Gauge
	generation     *telemetry.Gauge
}

// New builds an index serving the empty generation-0 snapshot; call
// [Index.Rebuild] or [Index.Schedule] to populate it.
func New(cfg Config) *Index {
	x := &Index{
		cfg: cfg,
		lg:  cfg.Log.Named("geoindex"),
		rebuilds: cfg.Metrics.Counter("waldo_geoindex_rebuilds_total",
			"Availability grid rebuilds completed."),
		coalesced: cfg.Metrics.Counter("waldo_geoindex_rebuild_coalesced_total",
			"Rebuild triggers absorbed by an already-running build."),
		rebuildSeconds: cfg.Metrics.Histogram("waldo_geoindex_rebuild_seconds",
			"Availability grid rebuild duration.", nil),
		cellsGauge: cfg.Metrics.Gauge("waldo_geoindex_cells",
			"Cells carrying at least one availability verdict."),
		entriesGauge: cfg.Metrics.Gauge("waldo_geoindex_entries",
			"Total (cell, channel, sensor) availability verdicts."),
		generation: cfg.Metrics.Gauge("waldo_geoindex_generation",
			"Generation of the snapshot currently serving."),
	}
	x.cur.Store(&Snapshot{CellDeg: DefaultCellDeg, cells: map[Cell][]ChannelAvailability{}})
	x.published = make(chan struct{})
	return x
}

// Snapshot returns the currently serving grid. Never nil; wait-free.
func (x *Index) Snapshot() *Snapshot {
	return x.cur.Load()
}

// Published returns a channel closed once a snapshot newer than the
// one serving now is published. Take it before loading the snapshot:
// then a publish between the two can never be missed.
func (x *Index) Published() <-chan struct{} {
	x.pubMu.Lock()
	defer x.pubMu.Unlock()
	return x.published
}

// Schedule triggers an asynchronous rebuild. It is the retrain hook:
// callers invoke it from journal callbacks that run under store locks,
// so it only flips scheduler state and (at most) starts one goroutine.
// Triggers that land while a build is running coalesce — the builder
// runs one more pass when it finishes, however many retrains landed.
//
// The triggering request's context is deliberately NOT captured:
// telemetry spans are pooled and recycled when the request ends, so a
// context carrying one must never outlive its request — and the build
// outlives the retrain by design. The rebuild runs detached, with its
// own metric-only span.
func (x *Index) Schedule(context.Context) {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	if x.running {
		x.dirty = true
		x.mu.Unlock()
		x.coalesced.Inc()
		return
	}
	x.running = true
	x.wg.Add(1)
	x.mu.Unlock()
	go x.buildLoop()
}

// buildLoop is the background builder: rebuild, then loop while
// retrains landed during the build.
func (x *Index) buildLoop() {
	defer x.wg.Done()
	for {
		x.Rebuild(context.Background())
		x.mu.Lock()
		if x.dirty && !x.closed {
			x.dirty = false
			x.mu.Unlock()
			continue
		}
		x.running = false
		x.mu.Unlock()
		return
	}
}

// Rebuild synchronously builds a fresh snapshot from Config.Source and
// publishes it, returning the published snapshot. Concurrent rebuilds
// serialize on the scheduler lock indirectly via generation: each build
// takes the next generation and the swap keeps the newest. Tests and
// bootstrap paths call this directly; the serving path uses Schedule.
func (x *Index) Rebuild(ctx context.Context) *Snapshot {
	span := x.cfg.Metrics.StartSpanCtx(ctx, "geoindex/rebuild")
	snap := x.build()
	d := span.End()

	// Publish, keeping the newest generation if a concurrent Rebuild
	// raced us past ours.
	for {
		cur := x.cur.Load()
		if cur.Generation >= snap.Generation {
			snap = cur
			break
		}
		if x.cur.CompareAndSwap(cur, snap) {
			x.pubMu.Lock()
			close(x.published)
			x.published = make(chan struct{})
			x.pubMu.Unlock()
			break
		}
	}
	x.rebuilds.Inc()
	x.rebuildSeconds.Observe(d.Seconds())
	x.cellsGauge.Set(float64(snap.Cells()))
	x.entriesGauge.Set(float64(snap.Entries()))
	x.generation.Set(float64(snap.Generation))
	x.lg.Info(ctx, "rebuild",
		"generation", snap.Generation,
		"cells", snap.Cells(),
		"entries", snap.Entries(),
		"stores", snap.Stores,
		"duration_ms", d.Milliseconds())
	return snap
}

// Close stops accepting rebuild triggers and waits for any in-flight
// build to finish, so a server shutdown never leaks a builder
// goroutine. Idempotent; Snapshot keeps serving the last grid.
func (x *Index) Close() {
	x.mu.Lock()
	x.closed = true
	x.mu.Unlock()
	x.wg.Wait()
}

// entryKey identifies one verdict within a cell during a build.
type entryKey struct {
	ch   rfenv.Channel
	kind sensor.Kind
}

// build derives a fresh grid: one verdict per (store, cell) that holds
// trained readings.
func (x *Index) build() *Snapshot {
	snap := &Snapshot{
		CellDeg:    DefaultCellDeg,
		Generation: x.gen.Add(1),
		cells:      make(map[Cell][]ChannelAvailability),
	}
	if x.cfg.Source == nil {
		return snap
	}
	for _, st := range x.cfg.Source() {
		runs := st.Readings
		if len(st.Recent) > 0 {
			runs = append(runs[:len(runs):len(runs)], st.Recent)
		}
		verdicts := storeVerdicts(runs)
		if len(verdicts) == 0 {
			continue
		}
		snap.Stores++
		for cell, v := range verdicts {
			v.Channel, v.Sensor, v.ModelVersion = st.Channel, st.Sensor, st.ModelVersion
			snap.cells[cell] = append(snap.cells[cell], v)
		}
	}
	for _, entries := range snap.cells {
		sort.Slice(entries, func(i, j int) bool { return verdictLess(entries[i], entries[j]) })
		snap.entries += len(entries)
	}
	return snap
}

// rule is Algorithm 1 as the store labeler runs it (core's Updater labels
// with the zero LabelConfig): the grid and the labels share one hot set.
var rule dataset.LabelConfig

// storeVerdicts applies the rule to every cell holding one of a store's
// readings: occupied when a hot reading lies inside it, uncertain when
// one lies within the protection radius of it, free otherwise.
func storeVerdicts(runs [][]dataset.Reading) map[Cell]ChannelAvailability {
	out := make(map[Cell]ChannelAvailability)
	var hot []geo.Point
	for _, run := range runs {
		for i := range run {
			c := CellOf(run[i].Loc, DefaultCellDeg)
			v := out[c]
			v.Readings++
			if rule.Hot(&run[i]) {
				hot = append(hot, run[i].Loc)
				v.Status = StatusOccupied
			}
			out[c] = v
		}
	}
	var index *geo.GridIndex
	if len(hot) > 0 {
		// nil only for a point off the globe: near then tests them all.
		index, _ = geo.NewGridIndex(hot[0], rule.ProtectRadius()/2, hot)
	}
	for c, v := range out {
		switch {
		case v.Status == StatusOccupied:
		case len(hot) > 0 && near(c, hot, index, rule.ProtectRadius()):
			v.Status = StatusUncertain
		default:
			v.Status = StatusFree
		}
		v.Confidence = 1
		out[c] = v
	}
	return out
}

const degToRad = math.Pi / 180

// near reports whether a hot point lies within radiusM of cell c, by
// gapM. Candidates come from index, a geo.GridIndex over hot, queried
// with the circle around the lat/lon box that holds every point within
// radiusM of the cell. Where that box reaches a pole or crosses the
// antimeridian the index's plane does not follow the sphere, and every
// hot point is tested.
func near(c Cell, hot []geo.Point, index *geo.GridIndex, radiusM float64) bool {
	lat0, lon0 := float64(c.X)*DefaultCellDeg, float64(c.Y)*DefaultCellDeg
	lat1, lon1 := lat0+DefaultCellDeg, lon0+DefaultCellDeg
	// The box's reach: gapM ≥ 2R·sin(Δlat/2), and ≥ 2R·cos(φ)·sin(Δlon/2)
	// for φ the most poleward latitude the box spans.
	latReach := 2 * math.Asin(radiusM/(2*geo.EarthRadiusM)) / degToRad
	cosBand := math.Cos(min(90, max(math.Abs(lat0-latReach), math.Abs(lat1+latReach))) * degToRad)
	lonReach := 2 * math.Asin(min(1, radiusM/(2*geo.EarthRadiusM*cosBand))) / degToRad
	found := false
	test := func(id int) bool {
		found = gapM(hot[id], c) <= radiusM
		return !found
	}
	if index == nil || lonReach >= 180 || lon0-lonReach < -180 || lon1+lonReach > 180 {
		for id := 0; id < len(hot) && test(id); id++ {
		}
		return found
	}
	latSpan, lonSpan := lat1-lat0+2*latReach, (lon1-lon0+2*lonReach)*math.Cos(hot[0].Lat*degToRad)
	circle := 0.5 * geo.EarthRadiusM * degToRad * math.Hypot(latSpan, lonSpan)
	index.WithinRadius(geo.Point{Lat: (lat0 + lat1) / 2, Lon: (lon0 + lon1) / 2}, circle*(1+1e-9), test)
	return found
}

// gapM is a lower bound on the great-circle distance from p to any point
// of cell c: the haversine formula at the smallest latitude and
// longitude gaps to the cell (the longitude one the short way round),
// with the cell's cosine taken at its most poleward edge, and asin(x) ≥
// x. In the metro it is within a meter of the true distance at 6 km.
func gapM(p geo.Point, c Cell) float64 {
	lat0, lon0 := float64(c.X)*DefaultCellDeg, float64(c.Y)*DefaultCellDeg
	lat1, lon1 := lat0+DefaultCellDeg, lon0+DefaultCellDeg
	dLat := max(lat0-p.Lat, p.Lat-lat1, 0)
	dLon := 0.0
	if p.Lon < lon0 || p.Lon > lon1 {
		dLon = min(math.Mod(lon0-p.Lon+720, 360), math.Mod(p.Lon-lon1+720, 360))
	}
	sinLat, sinLon := math.Sin(dLat*degToRad/2), math.Sin(dLon*degToRad/2)
	cosCell := math.Cos(max(math.Abs(lat0), math.Abs(lat1)) * degToRad)
	h := sinLat*sinLat + math.Cos(p.Lat*degToRad)*cosCell*sinLon*sinLon
	return 2 * geo.EarthRadiusM * math.Sqrt(h)
}
