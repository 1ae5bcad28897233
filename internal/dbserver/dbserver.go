// Package dbserver implements Waldo's central spectrum database as an HTTP
// service (paper §3.1, Fig. 8): it stores trusted location-tagged
// measurements per channel and sensor family, runs the Model Constructor,
// serves compact model descriptors to White Space Devices, and accepts
// measurement uploads for the Global Model Updater.
//
// Unlike a conventional spectrum database — queried once per location —
// a Waldo WSD downloads one descriptor per channel covering tens of square
// kilometers and then decides locally.
//
// # HTTP API
//
// [Server.Handler] serves the full surface:
//
//	GET  /v1/health                            liveness probe; "ok" text
//	GET  /healthz                              readiness + per-store JSON counts
//	                                           (readings and model version per
//	                                           channel/sensor)
//	GET  /metrics                              Prometheus text exposition of the
//	                                           server's telemetry registry
//	GET  /v1/model?channel=C&sensor=K          binary model descriptor; the
//	                                           X-Waldo-Model-Version header
//	                                           carries the version and ETag a
//	                                           strong validator hashing the
//	                                           bytes. Encoded blobs are cached
//	                                           per store keyed by model
//	                                           version; If-None-Match
//	                                           revalidations answer 304 with
//	                                           no body
//	GET  /v1/model/watch?channel=C&sensor=K&version=V
//	                                           long-poll model delivery: parks
//	                                           while If-None-Match names the
//	                                           current descriptor (without
//	                                           one: until the version exceeds
//	                                           V), then answers like
//	                                           /v1/model; 304 at the watch
//	                                           horizon (Config.WatchTimeout)
//	POST /v1/readings                          upload, JSON edge (UploadJSON)
//	POST /v1/upload/batch                      upload, frame edge: one core
//	                                           batch frame (u32 count |
//	                                           67-byte readings | CRC32), CI
//	                                           span in X-Waldo-CI-Span. Both
//	                                           edges decode into one pipeline
//	                                           (upload.go): validated, α′
//	                                           gated, one group-commit WAL
//	                                           append per upload; 204 on
//	                                           acceptance
//	POST /v1/retrain?channel=C&sensor=K        relabel + rebuild one model; the
//	                                           new version is in
//	                                           X-Waldo-Model-Version
//	GET  /v1/availability?lat=..&lon=..[&channels=C1,C2][&sensor=K]
//	                                           per-cell channel availability
//	                                           (free/occupied/uncertain +
//	                                           confidence) from the precomputed
//	                                           geo grid (internal/geoindex);
//	                                           lock-free snapshot lookup
//	POST /v1/route                             polyline + horizon → per-segment
//	                                           channel availability along the
//	                                           trajectory (RouteRequestJSON →
//	                                           RouteJSON); same snapshot, one
//	                                           lookup per traversed cell
//	GET  /v1/grid                              the grid itself, JSON
//	                                           (geoindex.EncodeGrid), for
//	                                           gateway replicas: parks like
//	                                           /v1/model/watch while
//	                                           If-None-Match names it
//	GET  /v1/export?channel=C&sensor=K         trusted store as CSV
//	GET  /v1/stats                             JSON array of per-store stats
//	                                           (readings, model version/bytes)
//	POST /v1/admin/snapshot[?channel=C&sensor=K]
//	                                           checkpoint one store (or all):
//	                                           seal its WAL segment, record
//	                                           its counts; 503 when
//	                                           the server has no data dir
//
// channel is a TV-band channel number, sensor a sensor.Kind integer.
// Errors are plain-text with conventional status codes: 400 for malformed
// requests, 404 for unknown stores, 422 for rejected uploads.
//
// Every route is wrapped in telemetry middleware (request counts by
// status, latency histograms, in-flight gauge), so /metrics observes the
// server's own traffic with no external collector.
//
// # Durability
//
// With Config.DataDir set (construct via [Open]), every store journals
// accepted readings and retrain markers to a per-store write-ahead log
// (internal/wal) that is never rewritten, and periodically checkpoints
// it (a sealed segment plus a fixed-size record of the counts). Open
// recovers all persisted stores before serving; because model rebuilds
// are deterministic, the recovered server serves byte-identical model
// descriptors at the same versions as before the crash. See DESIGN.md
// §10 and OPERATIONS.md.
package dbserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wal"
	"github.com/wsdetect/waldo/internal/wlog"
)

// Server is the central spectrum database.
type Server struct {
	// mu is read-locked on the hot lookup path (model downloads, stats)
	// and write-locked only to create a missing updater, so concurrent
	// model fetches never serialize behind uploads. Per-store mutation
	// is the updater's own concern (core.Updater is concurrency-safe).
	mu       sync.RWMutex
	updaters map[storeKey]*core.Updater
	// keys mirrors the updaters map as a sorted slice, maintained at
	// insertion so stats/health snapshots don't re-sort on every call.
	keys    []storeKey
	wals    map[storeKey]*wal.Store
	cfg     Config
	metrics *telemetry.Registry

	// blobMu guards the encoded-descriptor cache. Entries are keyed by
	// store and stamped with the model version they encode, so a
	// retrain invalidates them implicitly: the next download sees a
	// newer version, re-encodes once, and replaces the entry. Repeat
	// fleet polls of an unchanged model cost one map lookup (and, with
	// If-None-Match, no body at all).
	blobMu sync.RWMutex
	blobs  map[storeKey]*Descriptor

	// upload is the ingest pipeline's counters and pooled decode state
	// (upload.go); models answers the model requests over the stores,
	// the blob cache and hub, which drives push delivery (models.go,
	// watch.go).
	upload *uploadState
	models *Models
	hub    *watchHub

	// geoidx is the precomputed availability grid behind
	// GET /v1/availability and POST /v1/route, answered by places
	// (availability.go), and GET /v1/grid (gridexport.go). Rebuilds are
	// scheduled by the retrain journal and run off the request path.
	geoidx *geoindex.Index
	places *Places

	// closed is closed by BeginShutdown (once: closeOnce) so parked
	// long-polls (watchers) wake and answer instead of pinning the
	// listener's graceful shutdown for up to a full watch horizon.
	closed    chan struct{}
	closeOnce sync.Once
}

type storeKey struct {
	ch   rfenv.Channel
	kind sensor.Kind
}

// ShippedConstructor is the model every waldo-server trains, the
// paper's: k-means localities (k = 3, the 700 km² metro's, §3.2), each
// with a random-Fourier-feature SVM over location + RSS + CFT (Table 1,
// Fig. 16), seed 0. Uploads are gated at AlphaPrimeDB's default,
// core.DefaultAlphaPrimeDB (1 dB).
func ShippedConstructor() core.ConstructorConfig {
	return core.ConstructorConfig{ClusterK: 3, Classifier: core.KindSVM, Features: features.SetLocationRSSCFT}
}

// Config parameterizes the database.
type Config struct {
	// Constructor configures model building for every channel;
	// waldo-server sets ShippedConstructor.
	Constructor core.ConstructorConfig
	// AlphaPrimeDB is the upload acceptance criterion (§3.4); 0 means
	// core.DefaultAlphaPrimeDB, 1 dB.
	AlphaPrimeDB float64
	// Metrics receives the server's telemetry (HTTP middleware, updater
	// and WAL instrumentation) and backs the /metrics endpoint.
	// Nil means a fresh private registry, so telemetry is always on.
	Metrics *telemetry.Registry
	// MaxBodyBytes caps accepted upload and route bodies; 0 means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// WatchTimeout is the long-poll horizon of GET /v1/model/watch: a
	// parked watch is answered 304 after this long so the client re-arms
	// and intermediaries never see an immortal request. 0 means 55 s.
	WatchTimeout time.Duration
	// DataDir, when set, makes every store durable: accepted readings and
	// retrain markers are journaled to a per-store write-ahead log under
	// this directory, checkpointed, and recovered on Open. Empty means
	// in-memory only (New's historical behavior).
	DataDir string
	// SnapshotEvery, when positive, has a store's WAL checkpoint itself
	// (its log segment sealed, its counts recorded; the cost does not
	// depend on the store's size) once that many readings have been
	// journaled since its last cut (wal.StoreOptions.CheckpointEvery).
	// 0 means checkpoints only happen on demand via
	// POST /v1/admin/snapshot.
	SnapshotEvery int
	// WALFS overrides the filesystem the WAL persists through; nil means
	// the real one. The fault-injection layer hooks in here.
	WALFS wal.FS
	// Tap, when set, observes every accepted store mutation in exactly
	// the order it was applied: bootstrap seeds, accepted upload batches,
	// and completed retrains. The cluster replication layer
	// (internal/cluster) hooks in here to keep the journal its replicas
	// pull. The tap runs under the store lock, like core.Journal — it
	// must only enqueue. State recovered from disk at Open is not
	// replayed into the tap.
	Tap Tap
	// Log receives structured events (refused routes, WAL errors).
	// Nil disables logging — every wlog method is a no-op on a nil
	// logger, matching the telemetry convention.
	Log *wlog.Logger
}

// DefaultMaxBodyBytes is the request body cap of a server whose
// Config.MaxBodyBytes is 0.
const DefaultMaxBodyBytes = 4 << 20

// Tap receives accepted store mutations for replication, each as the
// one store mutation record (core.ParseRecord) the WAL journals. It is
// invoked while the owning updater's lock is held (the same contract as
// core.Journal), so the call order is the store's apply order. The
// context carries the trace of the request that caused the mutation —
// attribution only, never cancellation.
type Tap interface {
	// Record reports one mutation of the store ch/kind. rec is
	// caller-owned; implementations must copy what they retain.
	Record(ctx context.Context, ch rfenv.Channel, kind sensor.Kind, rec []byte)
}

// storeJournal is the one core.Journal a store's updater is wired to:
// the fixed sequence of what follows an accepted mutation, top to bottom
// — encoding it as a store mutation record, once, when anything below
// takes records; the WAL (on a durable server); the replication tap
// (when configured); then, for retrains only (fresh readings change no
// verdict and no version until a retrain folds them in), the
// availability-grid rebuild trigger and, always last, the watcher
// wake-up, so a delivered push never races ahead of durability. Its
// methods run under the updater's store lock (see core.Journal), so
// every step only enqueues.
type storeJournal struct {
	s   *Server
	key storeKey
	wal *wal.Store // nil without a DataDir
	// rec is the reused record buffer; the store lock serializes its use.
	rec []byte
}

func (j *storeJournal) AppendReadings(ctx context.Context, rs []dataset.Reading) {
	for len(rs) > 0 && (j.wal != nil || j.s.cfg.Tap != nil) {
		j.rec, rs = core.AppendReadingsRecord(j.rec[:0], rs)
		j.record(ctx)
	}
}

func (j *storeJournal) RecordRetrain(ctx context.Context, version, trained int) {
	if j.wal != nil || j.s.cfg.Tap != nil {
		j.rec = core.AppendRetrainRecord(j.rec[:0], version, trained)
		j.record(ctx)
	}
	// Both steps below are O(1) — flip scheduler state (the grid build
	// runs on its own goroutine), swap a map entry — but span them anyway:
	// a retrain trace then shows them ordered after the durable steps.
	sp := j.s.metrics.StartSpanCtx(ctx, "geoindex/schedule")
	j.s.geoidx.Schedule(ctx)
	sp.End()
	sp = j.s.metrics.StartSpanCtx(ctx, "watch/bump")
	j.s.hub.bump(j.key)
	sp.End()
}

// record hands the encoded record to the WAL, then to the tap.
func (j *storeJournal) record(ctx context.Context) {
	if j.wal != nil {
		j.wal.Append(ctx, j.rec)
	}
	if tap := j.s.cfg.Tap; tap != nil {
		tap.Record(ctx, j.key.ch, j.key.kind, j.rec)
	}
}

// New returns an empty database server.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.New()
	}
	s := &Server{
		updaters: make(map[storeKey]*core.Updater),
		wals:     make(map[storeKey]*wal.Store),
		cfg:      cfg,
		metrics:  cfg.Metrics,
		blobs:    make(map[storeKey]*Descriptor),
		upload:   newUploadState(cfg.Metrics),
		hub:      newWatchHub(),
		closed:   make(chan struct{}),
	}
	s.models = NewModels(cfg.Metrics, s.closed)
	s.places = NewPlaces(cfg.Metrics, cfg.Log.Named("dbserver"), cfg.MaxBodyBytes)
	// The grid's Source walks the live stores, so the index is built
	// after the server exists; it serves the empty generation-0 snapshot
	// until the first retrain schedules a build.
	s.geoidx = geoindex.New(geoindex.Config{
		Source:  s.indexSource,
		Metrics: cfg.Metrics,
		Log:     cfg.Log,
	})
	return s
}

// Metrics returns the server's telemetry registry (never nil).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// lookup returns the updater for a channel/sensor if it exists, taking
// only a read lock — the model-download hot path.
func (s *Server) lookup(ch rfenv.Channel, kind sensor.Kind) (*core.Updater, bool) {
	s.mu.RLock()
	u, ok := s.updaters[storeKey{ch, kind}]
	s.mu.RUnlock()
	return u, ok
}

// updaterFor returns (creating if needed) the updater for a channel/sensor.
func (s *Server) updaterFor(ch rfenv.Channel, kind sensor.Kind) (*core.Updater, error) {
	if u, ok := s.lookup(ch, kind); ok {
		return u, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := storeKey{ch, kind}
	if u, ok := s.updaters[key]; ok {
		return u, nil
	}
	u, err := core.NewUpdater(core.UpdaterConfig{
		Constructor:  s.cfg.Constructor,
		AlphaPrimeDB: s.cfg.AlphaPrimeDB,
		Metrics:      s.metrics,
		MetricsScope: fmt.Sprintf("%v/%v", ch, kind),
		Channel:      ch,
		Sensor:       kind,
	})
	if err != nil {
		return nil, err
	}
	j := &storeJournal{s: s, key: key}
	if s.cfg.DataDir != "" {
		// Recovery (WAL replay into the store + model rebuild) happens
		// here, before the updater becomes visible: no request ever sees
		// a partially recovered store.
		if j.wal, err = s.openStore(key, u); err != nil {
			return nil, err
		}
	}
	u.SetJournal(j)
	s.updaters[key] = u
	s.insertKeyLocked(key)
	return u, nil
}

// insertKeyLocked adds key to the maintained sorted slice. Called with
// s.mu write-held; sorting once at creation keeps every snapshot call
// (stats, health) a plain copy.
func (s *Server) insertKeyLocked(key storeKey) {
	i := sort.Search(len(s.keys), func(i int) bool {
		k := s.keys[i]
		if k.ch != key.ch {
			return k.ch > key.ch
		}
		return k.kind >= key.kind
	})
	s.keys = append(s.keys, storeKey{})
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
}

// Bootstrap seeds the database with trusted campaign readings and trains
// initial models for every channel/sensor present.
func (s *Server) Bootstrap(readings []dataset.Reading) error {
	byKey := make(map[storeKey][]dataset.Reading)
	for i := range readings {
		key := storeKey{readings[i].Channel, readings[i].Sensor}
		byKey[key] = append(byKey[key], readings[i])
	}
	for key, rs := range byKey {
		u, err := s.updaterFor(key.ch, key.kind)
		if err != nil {
			return fmt.Errorf("dbserver: %v/%v: %w", key.ch, key.kind, err)
		}
		u.Bootstrap(rs)
		if _, err := u.Retrain(); err != nil {
			return fmt.Errorf("dbserver: train %v/%v: %w", key.ch, key.kind, err)
		}
	}
	// Each retrain above scheduled an async grid rebuild; run one more
	// synchronously so a freshly bootstrapped server answers
	// availability queries deterministically from its first request.
	s.geoidx.Rebuild(context.Background())
	return nil
}

// Handler returns the HTTP API (see the package comment for the full
// surface). Every route but /metrics and /debug/traces is served
// through the telemetry middleware.
func (s *Server) Handler() http.Handler {
	m := s.metrics
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, m.WrapRoute(label, h))
	}
	route("GET /v1/health", "/v1/health", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	route("GET /healthz", "/healthz", s.handleHealthz)
	route("GET /v1/model", "/v1/model", s.handleModel)
	route("GET /v1/model/watch", "/v1/model/watch", s.handleModelWatch)
	for _, e := range uploadEdges {
		route("POST "+e.path, e.path, s.handleUpload(e.decode))
	}
	route("POST /v1/retrain", "/v1/retrain", s.handleRetrain)
	route("GET /v1/availability", "/v1/availability", s.handleAvailability)
	route("POST /v1/route", "/v1/route", s.handleRoute)
	route("GET /v1/grid", "/v1/grid", s.handleGrid)
	route("GET /v1/export", "/v1/export", s.handleExport)
	route("GET /v1/stats", "/v1/stats", s.handleStats)
	route("POST /v1/admin/snapshot", "/v1/admin/snapshot", s.handleAdminSnapshot)
	mux.Handle("GET /metrics", m.Handler())
	// The trace viewer is a probe like /metrics: unwrapped, because
	// reading the recorder should not itself mint traces.
	mux.Handle("GET /debug/traces", m.FlightRecorder().Handler())
	return mux
}

// parseKey reads the store a request's query names (channel and sensor).
func parseKey(q url.Values) (rfenv.Channel, sensor.Kind, error) {
	chStr := q.Get("channel")
	kindStr := q.Get("sensor")
	chInt, err := strconv.Atoi(chStr)
	if err != nil {
		return 0, 0, fmt.Errorf("bad channel %q", chStr)
	}
	kInt, err := strconv.Atoi(kindStr)
	if err != nil {
		return 0, 0, fmt.Errorf("bad sensor %q", kindStr)
	}
	ch := rfenv.Channel(chInt)
	if !ch.Valid() {
		return 0, 0, fmt.Errorf("channel %d outside TV band", chInt)
	}
	kind := sensor.Kind(kInt)
	if _, err := sensor.SpecFor(kind); err != nil {
		return 0, 0, err
	}
	return ch, kind, nil
}

// ModelETag is the strong validator for one store's encoded descriptor:
// channel, sensor, version and a 64-bit FNV-1a hash of the bytes.
// Versions count retrains on one server, so two shards' v1 of a channel
// are different models; the hash tells them apart, and byte-identical
// replicas still share a validator. It names the bytes, so whoever holds
// them — a gateway's replica — can check it.
func ModelETag(ch rfenv.Channel, kind sensor.Kind, version int, data []byte) string {
	return fmt.Sprintf(`"%d-%d-v%d-%016x"`, int(ch), int(kind), version, fnv64(data))
}

// fnv64 is the 64-bit FNV-1a hash the validators carry.
func fnv64(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data) //nolint:errcheck // a hash.Hash never fails
	return h.Sum64()
}

// etagMatches implements the If-None-Match comparison (weak comparison:
// a W/ prefix on either side is ignored, as RFC 9110 §13.1.2 requires for
// this header).
func etagMatches(header, etag string) bool {
	for rest, more := header, header != ""; more; {
		var cand string
		cand, rest, more = strings.Cut(rest, ",")
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}

// encodedModel returns the cached descriptor for the store at the given
// version, encoding and caching it on version mismatch (the first request
// after a retrain), and reports whether it encoded.
func (s *Server) encodedModel(key storeKey, model *core.Model, version int) (*Descriptor, bool, error) {
	s.blobMu.RLock()
	blob := s.blobs[key]
	s.blobMu.RUnlock()
	if blob != nil && blob.Version == version {
		return blob, false, nil
	}
	var buf bytes.Buffer
	if err := core.EncodeModel(&buf, model); err != nil {
		return nil, false, err
	}
	fresh := &Descriptor{Version: version, ETag: ModelETag(key.ch, key.kind, version, buf.Bytes()), Data: buf.Bytes()}
	s.blobMu.Lock()
	// Keep the newest version if a concurrent encode raced us there.
	if cur := s.blobs[key]; cur == nil || cur.Version < version {
		s.blobs[key] = fresh
	}
	s.blobMu.Unlock()
	return fresh, true, nil
}

// ReadingJSON is the wire form of one uploaded reading.
type ReadingJSON struct {
	Seq     int     `json:"seq"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	Channel int     `json:"channel"`
	Sensor  int     `json:"sensor"`
	RSSdBm  float64 `json:"rss_dbm"`
	CFTdB   float64 `json:"cft_db"`
	AFTdB   float64 `json:"aft_db"`
	// AltM is the reporting device's antenna height in meters, 0 when
	// unreported: validated and stored, read by no served path.
	AltM float64 `json:"alt_m,omitempty"`
}

// UploadJSON is the wire form of a WSD measurement upload.
type UploadJSON struct {
	CISpanDB float64       `json:"ci_span_db"`
	Readings []ReadingJSON `json:"readings"`
}

// ToReading converts the wire form. It checks nothing: what an uploaded
// reading must satisfy is core.UploadBatch.Validate's, applied to every
// format alike.
func (rj ReadingJSON) ToReading() dataset.Reading {
	return dataset.Reading{
		Seq:     rj.Seq,
		Loc:     geo.Point{Lat: rj.Lat, Lon: rj.Lon},
		Channel: rfenv.Channel(rj.Channel),
		Sensor:  sensor.Kind(rj.Sensor),
		Signal:  features.Signal{RSSdBm: rj.RSSdBm, CFTdB: rj.CFTdB, AFTdB: rj.AFTdB},
		AltM:    rj.AltM,
	}
}

// FromReading converts to the wire form.
func FromReading(r dataset.Reading) ReadingJSON {
	return ReadingJSON{
		Seq:     r.Seq,
		Lat:     r.Loc.Lat,
		Lon:     r.Loc.Lon,
		Channel: int(r.Channel),
		Sensor:  int(r.Sensor),
		RSSdBm:  r.Signal.RSSdBm,
		CFTdB:   r.Signal.CFTdB,
		AFTdB:   r.Signal.AFTdB,
		AltM:    r.AltM,
	}
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	ch, kind, err := parseKey(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u, ok := s.lookup(ch, kind)
	if !ok {
		http.Error(w, "no data for this channel/sensor", http.StatusNotFound)
		return
	}
	if _, err := u.RetrainCtx(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	_, version := u.Model()
	w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(version))
	w.WriteHeader(http.StatusOK)
}

// handleExport streams one store's readings as CSV — the operator path
// for backing up or migrating the trusted measurement corpus.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	ch, kind, err := parseKey(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u, ok := s.lookup(ch, kind)
	if !ok {
		http.Error(w, "no data for this channel/sensor", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	if err := dataset.WriteCSVChunks(w, u.View().Chunks()); err != nil {
		// Headers are gone; nothing more to do than drop the connection.
		return
	}
}

// StatsJSON is one store's operational snapshot.
type StatsJSON struct {
	Channel      int `json:"channel"`
	Sensor       int `json:"sensor"`
	Readings     int `json:"readings"`
	ModelVersion int `json:"model_version"`
	ModelBytes   int `json:"model_bytes"`
}

// handleStats reports store sizes and model versions for every
// channel/sensor pair.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	keys, byKey := s.storeSnapshot()
	stats := make([]StatsJSON, 0, len(keys))
	for _, k := range keys {
		u := byKey[k]
		model, version := u.Model()
		entry := StatsJSON{
			Channel:      int(k.ch),
			Sensor:       int(k.kind),
			Readings:     u.Size(),
			ModelVersion: version,
		}
		if model != nil {
			if n, err := core.EncodedSize(model); err == nil {
				entry.ModelBytes = n
			}
		}
		stats = append(stats, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(stats); err != nil {
		return // client went away
	}
}

// storeSnapshot returns the current stores in deterministic (channel,
// sensor) order. The keys slice is kept sorted at insertion, so this is
// a copy, not a sort.
func (s *Server) storeSnapshot() ([]storeKey, map[storeKey]*core.Updater) {
	s.mu.RLock()
	keys := append([]storeKey(nil), s.keys...)
	byKey := make(map[storeKey]*core.Updater, len(s.updaters))
	for k, u := range s.updaters {
		byKey[k] = u
	}
	s.mu.RUnlock()
	return keys, byKey
}

// HealthJSON is the /healthz readiness report.
type HealthJSON struct {
	Status string `json:"status"`
	// Stores counts trained and total stores; a server with no stores is
	// still "ok" (it may be awaiting Bootstrap).
	Stores []HealthStoreJSON `json:"stores"`
}

// HealthStoreJSON is one store's readiness line.
type HealthStoreJSON struct {
	Channel      int  `json:"channel"`
	Sensor       int  `json:"sensor"`
	Readings     int  `json:"readings"`
	ModelVersion int  `json:"model_version"`
	Trained      bool `json:"trained"`
}

// handleHealthz reports readiness plus per-store counts — the cheap
// probe for load balancers and the load generator (no model encoding,
// unlike /v1/stats).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	keys, byKey := s.storeSnapshot()
	rep := HealthJSON{Status: "ok", Stores: make([]HealthStoreJSON, 0, len(keys))}
	for _, k := range keys {
		u := byKey[k]
		_, version := u.Model()
		rep.Stores = append(rep.Stores, HealthStoreJSON{
			Channel:      int(k.ch),
			Sensor:       int(k.kind),
			Readings:     u.Size(),
			ModelVersion: version,
			Trained:      version > 0,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(rep); err != nil {
		return // client went away
	}
}

// ModelVersion reports the current model version for a channel/sensor
// (0 when the store is absent or untrained).
func (s *Server) ModelVersion(ch rfenv.Channel, kind sensor.Kind) int {
	u, ok := s.lookup(ch, kind)
	if !ok {
		return 0
	}
	_, version := u.Model()
	return version
}

// StoreSize reports the number of stored readings for a channel/sensor.
func (s *Server) StoreSize(ch rfenv.Channel, kind sensor.Kind) int {
	u, ok := s.lookup(ch, kind)
	if !ok {
		return 0
	}
	return u.Size()
}
