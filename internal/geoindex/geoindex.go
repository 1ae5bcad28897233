// Package geoindex precomputes the spatiotemporal availability grid:
// for every quantized geo-cell, which TV channels are free, occupied,
// or uncertain, and with what confidence. It is the read-side answer to
// the query surface Saeed et al. argue for ("Towards Dynamic Real-Time
// Geo-location Databases for TV White Spaces"): a WSD — or a route
// planner — asks "what can I transmit on *here*, and along my path?",
// and the answer must cost a map lookup, not a model evaluation.
//
// The grid is derived, not stored: on every retrain the index re-reads
// each trusted store's current model plus a recency window of its
// readings, classifies those readings with the model (the same
// Algorithm 1-trained classifier that labels the store), and folds the
// per-cell Safe/NotSafe votes into a [ChannelAvailability] verdict. The
// rebuild runs off the request path on its own goroutine
// (snapshot-then-swap, exactly like dbserver's encoded-descriptor
// cache): readers load an immutable [Snapshot] through an atomic
// pointer and never contend with a rebuild, so a retrain storm cannot
// put a spike in route-query latency. See DESIGN.md §15.
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

// DefaultCellDeg is the default geo-cell quantum, shared with the
// cluster routing tier (cluster.CellOf delegates here): 0.05° is
// ~5.5 km of latitude — coarse enough that one wardriving neighborhood
// is one cell, fine enough that a metro spans many.
const DefaultCellDeg = 0.05

// DefaultMaxRecent is the default per-store recency window: how many of
// a store's most recently accepted readings count as occupancy evidence
// for a rebuild. The store is append-only, so the tail is the freshest
// view of the spectrum without any timestamp bookkeeping.
const DefaultMaxRecent = 4096

// DefaultEvidenceShrink is the confidence shrinkage prior: a
// cell's confidence is its winning vote share scaled by n/(n+k), so a
// single-reading cell reports ~0.2 confidence while a well-surveyed one
// approaches its raw vote share.
const DefaultEvidenceShrink = 4

// Vote-share thresholds for the three-way verdict.
const (
	// DefaultFreeFraction is the minimum Safe vote share for a
	// StatusFree verdict.
	DefaultFreeFraction = 0.8
	// DefaultOccupiedFraction is the maximum Safe vote share for a
	// StatusOccupied verdict.
	DefaultOccupiedFraction = 0.2
)

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

// The availability verdicts. There is no "unknown" value: a channel
// with no evidence in a cell simply has no entry in the snapshot.
const (
	// StatusFree means the evidence says a WSD may transmit: at least
	// DefaultFreeFraction of the model-classified recent readings in
	// the cell voted Safe.
	StatusFree Status = iota + 1
	// StatusOccupied means an incumbent is present: at most
	// DefaultOccupiedFraction of the votes were Safe.
	StatusOccupied
	// StatusUncertain means the votes split — the cell likely straddles
	// a protection contour, and a WSD should fall back to a local
	// detection pass before transmitting.
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
	// Confidence is the winning vote share scaled by evidence volume
	// (n/(n+k) shrinkage), in (0, 1). It answers "how sure is the grid",
	// not "how sure is the model": a cell with one reading is never
	// confident, however decisive that reading.
	Confidence float64
	// Readings is the number of recent readings that voted.
	Readings int
	// ModelVersion is the store's model version the votes were cast
	// with — the availability analog of the descriptor cache key.
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

// StoreSnapshot is one trusted store's contribution to a rebuild: its
// current model, that model's version, and the recency window of
// accepted readings used as occupancy evidence.
type StoreSnapshot struct {
	// Channel and Sensor identify the store.
	Channel rfenv.Channel
	// Sensor is the store's sensor family.
	Sensor sensor.Kind
	// Model is the store's current classifier; nil stores are skipped
	// (no model, no verdicts).
	Model *core.Model
	// ModelVersion is the version of Model.
	ModelVersion int
	// Recent is the store's evidence window, newest-last.
	Recent []dataset.Reading
}

// Config assembles an [Index].
type Config struct {
	// CellDeg is the grid quantum; 0 means DefaultCellDeg. It must
	// match the cluster's routing quantum, so a cell's verdicts live on
	// its owner; a gateway refuses a grid at any other quantum.
	CellDeg float64
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
	if cfg.CellDeg <= 0 {
		cfg.CellDeg = DefaultCellDeg
	}
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
	x.cur.Store(&Snapshot{CellDeg: cfg.CellDeg, cells: map[Cell][]ChannelAvailability{}})
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

// CellDeg reports the grid quantum the index was configured with.
func (x *Index) CellDeg() float64 { return x.cfg.CellDeg }

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

// tally accumulates one store's votes for one cell.
type tally struct {
	safe, total  int
	modelVersion int
}

// build derives a fresh grid: classify each store's evidence window
// with its own current model and fold the Safe/NotSafe votes per cell.
func (x *Index) build() *Snapshot {
	snap := &Snapshot{
		CellDeg:    x.cfg.CellDeg,
		Generation: x.gen.Add(1),
		cells:      make(map[Cell][]ChannelAvailability),
	}
	if x.cfg.Source == nil {
		return snap
	}
	votes := make(map[Cell]map[entryKey]*tally)
	for _, st := range x.cfg.Source() {
		if st.Model == nil || len(st.Recent) == 0 {
			continue
		}
		snap.Stores++
		key := entryKey{st.Channel, st.Sensor}
		for i := range st.Recent {
			label, err := st.Model.ClassifyReading(st.Recent[i])
			if err != nil {
				continue
			}
			cell := CellOf(st.Recent[i].Loc, x.cfg.CellDeg)
			byKey := votes[cell]
			if byKey == nil {
				byKey = make(map[entryKey]*tally)
				votes[cell] = byKey
			}
			t := byKey[key]
			if t == nil {
				t = &tally{modelVersion: st.ModelVersion}
				byKey[key] = t
			}
			t.total++
			if label == dataset.LabelSafe {
				t.safe++
			}
		}
	}
	k := float64(DefaultEvidenceShrink)
	for cell, byKey := range votes {
		entries := make([]ChannelAvailability, 0, len(byKey))
		for key, t := range byKey {
			frac := float64(t.safe) / float64(t.total)
			status := StatusUncertain
			winning := math.Max(frac, 1-frac)
			switch {
			case frac >= DefaultFreeFraction:
				status = StatusFree
			case frac <= DefaultOccupiedFraction:
				status = StatusOccupied
			}
			entries = append(entries, ChannelAvailability{
				Channel:      key.ch,
				Sensor:       key.kind,
				Status:       status,
				Confidence:   winning * float64(t.total) / (float64(t.total) + k),
				Readings:     t.total,
				ModelVersion: t.modelVersion,
			})
		}
		sort.Slice(entries, func(i, j int) bool { return verdictLess(entries[i], entries[j]) })
		snap.cells[cell] = entries
		snap.entries += len(entries)
	}
	return snap
}
