package dbserver

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// The model requests (GET /v1/model, GET /v1/model/watch) over a
// ModelView, the way Places answers place queries over a GridView: a
// server reads its own stores, a gateway the owner's replica
// (internal/cluster; DESIGN.md §12), and both answer through Models, so
// a gateway's answer is byte-identical to the owning server's.

// Descriptor is one store's encoded model as served: its version, its
// strong validator (ModelETag) and its bytes. It is shared and never
// mutated.
type Descriptor struct {
	Version int
	ETag    string
	Data    []byte
}

// ErrNotHeld is a ModelView's answer for a store it cannot speak for —
// a gateway's replica that is out of sync. Models then writes nothing
// and reports false, and the caller answers another way.
var ErrNotHeld = errors.New("dbserver: store not held by this view")

// errNoStore is a server's answer for a store it does not have.
var errNoStore = errors.New("no model for this channel/sensor")

// ModelView is how a model request reads one store.
type ModelView interface {
	// Descriptor returns the store's current descriptor, nil while it is
	// untrained, and whether this call encoded it (a cache miss).
	Descriptor(ch rfenv.Channel, kind sensor.Kind) (d *Descriptor, encoded bool, err error)
	// Changed returns a channel closed once the descriptor may have
	// changed; a watch takes it before it reads the descriptor.
	Changed(ch rfenv.Channel, kind sensor.Kind) <-chan struct{}
	// Horizon is how long a watch parks before its 304; false when the
	// view cannot park one on the store (a gateway replica whose owner
	// has stated none yet), which leaves the watch unanswered.
	Horizon(ch rfenv.Channel, kind sensor.Kind) (time.Duration, bool)
}

// Models answers the model requests over a ModelView.
type Models struct {
	cacheHit, cacheMiss, cacheNotMod *telemetry.Counter
	watch                            watchState
	closed                           <-chan struct{}
}

// NewModels returns the model surface, reporting to m (nil: nowhere); a
// parked watch answers 503 once closed is.
func NewModels(m *telemetry.Registry, closed <-chan struct{}) *Models {
	const cacheHelp = "Model descriptor cache lookups by outcome (hit, miss, not_modified)."
	return &Models{
		cacheHit:    m.Counter("waldo_dbserver_model_cache_total", cacheHelp, "outcome", "hit"),
		cacheMiss:   m.Counter("waldo_dbserver_model_cache_total", cacheHelp, "outcome", "miss"),
		cacheNotMod: m.Counter("waldo_dbserver_model_cache_total", cacheHelp, "outcome", "not_modified"),
		watch:       newWatchState(m),
		closed:      closed,
	}
}

// read is a request's first read of its store. On !ok it has answered
// (404, 500) — or, for a store view does not hold (!held), written
// nothing.
func read(w http.ResponseWriter, view ModelView, ch rfenv.Channel, kind sensor.Kind) (d *Descriptor, encoded, ok, held bool) {
	d, encoded, err := view.Descriptor(ch, kind)
	switch {
	case err == nil:
		return d, encoded, true, true
	case err == ErrNotHeld:
		return nil, false, false, false
	case err == errNoStore:
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return nil, false, false, true
}

// deliver answers a descriptor whole.
func (ms *Models) deliver(w http.ResponseWriter, d *Descriptor, encoded bool) {
	if encoded {
		ms.cacheMiss.Inc()
	} else {
		ms.cacheHit.Inc()
	}
	w.Header().Set("ETag", d.ETag)
	w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(d.Version))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(d.Data) //nolint:errcheck // client went away
}

// Fetch serves GET /v1/model?channel=C&sensor=K: the store's descriptor,
// or 304 when If-None-Match names it. It reports false, having written
// nothing, when view does not hold the store.
func (ms *Models) Fetch(w http.ResponseWriter, r *http.Request, view ModelView) bool {
	ch, kind, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return true
	}
	d, encoded, ok, held := read(w, view, ch, kind)
	switch {
	case !ok:
		return held
	case d == nil:
		// The validator names the bytes, so even a conditional request
		// needs a descriptor: untrained is no answer.
		http.Error(w, "model not trained yet", http.StatusNotFound)
	case r.Header.Get("If-None-Match") != "" && etagMatches(r.Header.Get("If-None-Match"), d.ETag):
		ms.cacheNotMod.Inc()
		w.Header().Set("ETag", d.ETag)
		w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(d.Version))
		w.WriteHeader(http.StatusNotModified)
	default:
		ms.deliver(w, d, encoded)
	}
	return true
}

// Watch serves GET /v1/model/watch?channel=C&sensor=K&version=V. A
// request whose If-None-Match names a descriptor parks while that is the
// store's current one: versions count retrains per server, so only the
// validator tells a device arriving from another shard that it holds a
// different model. Without a validator — a device's first watch — it
// parks while the store's version is at most V (default 0, so a fresh
// client gets the current model at once). It answers with the
// descriptor when that changes, 304 at the view's horizon
// (X-Waldo-Model-Version carries the unchanged version), 503 once
// closed, or nothing once the client disconnects; each answer states
// the horizon in HorizonHeader. It reports false, having written
// nothing, when view does not hold the store or gives it up while the
// watch is parked.
func (ms *Models) Watch(w http.ResponseWriter, r *http.Request, view ModelView) bool {
	ch, kind, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return true
	}
	inm := r.Header.Get("If-None-Match")
	since := 0
	if v := r.URL.Query().Get("version"); v != "" {
		since, err = strconv.Atoi(v)
		if err != nil || since < 0 {
			http.Error(w, "bad version "+strconv.Quote(v), http.StatusBadRequest)
			return true
		}
	}
	if _, _, ok, held := read(w, view, ch, kind); !ok {
		return held
	}
	horizon, ok := view.Horizon(ch, kind)
	if !ok {
		return false
	}
	w.Header().Set(HorizonHeader, strconv.FormatInt(horizon.Milliseconds(), 10))
	ms.watch.active.Add(1)
	defer ms.watch.active.Add(-1)
	timer := time.NewTimer(horizon)
	defer timer.Stop()
	for {
		// Take the change channel before reading: a change that lands
		// between the read and the select closes the channel already
		// held, so the wait below returns at once instead of sleeping
		// through it.
		changed := view.Changed(ch, kind)
		d, encoded, err := view.Descriptor(ch, kind)
		if err != nil {
			w.Header().Del(HorizonHeader)
			if err == ErrNotHeld {
				return false
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return true
		}
		version := 0
		if d != nil {
			version = d.Version
			if inm == "" && version > since || inm != "" && !etagMatches(inm, d.ETag) {
				ms.watch.delivered.Inc()
				ms.deliver(w, d, encoded)
				return true
			}
		}
		select {
		case <-changed:
		case <-timer.C:
			ms.watch.timeout.Inc()
			w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(version))
			w.WriteHeader(http.StatusNotModified)
			return true
		case <-r.Context().Done():
			ms.watch.disconnect.Inc()
			return true
		case <-ms.closed:
			// Shutting down: answer instead of pinning the listener's
			// drain until the horizon. 503 sends resilient clients into
			// their backoff-and-re-arm path.
			ms.watch.shutdown.Inc()
			w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(version))
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return true
		}
	}
}

// serverModels is a server's view: its stores, encode cache and watch
// hub.
type serverModels struct{ s *Server }

func (v serverModels) Descriptor(ch rfenv.Channel, kind sensor.Kind) (*Descriptor, bool, error) {
	u, ok := v.s.lookup(ch, kind)
	if !ok {
		return nil, false, errNoStore
	}
	model, version := u.Model()
	if model == nil {
		return nil, false, nil
	}
	return v.s.encodedModel(storeKey{ch, kind}, model, version)
}

func (v serverModels) Changed(ch rfenv.Channel, kind sensor.Kind) <-chan struct{} {
	return v.s.hub.watch(storeKey{ch, kind})
}

func (v serverModels) Horizon(rfenv.Channel, sensor.Kind) (time.Duration, bool) {
	return v.s.watchTimeout(), true
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	s.models.Fetch(w, r, serverModels{s})
}

func (s *Server) handleModelWatch(w http.ResponseWriter, r *http.Request) {
	s.models.Watch(w, r, serverModels{s})
}
