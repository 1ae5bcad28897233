package dbserver

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// Push-based model delivery (GET /v1/model/watch): instead of fleets
// polling /v1/model on a timer — which costs one request per device per
// poll interval whether or not anything changed — a WSD parks a single
// long-poll request naming the version it already has. The server answers
// the instant a retrain bumps past that version, or with 304 after
// Config.WatchTimeout so intermediaries never see an immortal request.
//
// The cost model is the point: an idle watcher is one blocked goroutine
// holding no locks, and a retrain does O(1) work to wake every watcher of
// that store (one channel close, handed to the scheduler off the store
// lock) — so a million idle WSDs cost approximately zero server CPU
// between retrains.

// watchHub fans "model version bumped" events out to long-poll waiters,
// one notification channel per store. Waiters never receive values; they
// wait for the current channel to be closed and then re-check the
// version, so a bump between registration and the version check can never
// be missed.
type watchHub struct {
	mu     sync.Mutex
	points map[storeKey]chan struct{}
}

func newWatchHub() *watchHub {
	return &watchHub{points: make(map[storeKey]chan struct{})}
}

// watch returns the current notification channel for key, creating it on
// first use. The channel is closed (and replaced) on the next bump.
func (h *watchHub) watch(key storeKey) <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.points[key]
	if !ok {
		ch = make(chan struct{})
		h.points[key] = ch
	}
	return ch
}

// bump wakes every watcher of key. Called from the journal under the
// store lock, so it only swaps a map entry; the close — which makes the
// scheduler wake N goroutines — runs on its own goroutine to keep the
// retrain path O(1) regardless of watcher count.
func (h *watchHub) bump(key storeKey) {
	h.mu.Lock()
	old, ok := h.points[key]
	if ok {
		h.points[key] = make(chan struct{})
	}
	h.mu.Unlock()
	if ok {
		go close(old)
	}
}

// watchState carries the watch endpoint's telemetry.
type watchState struct {
	active     *telemetry.Gauge
	delivered  *telemetry.Counter
	timeout    *telemetry.Counter
	disconnect *telemetry.Counter
	shutdown   *telemetry.Counter
}

func newWatchState(m *telemetry.Registry) watchState {
	const help = "Model watch long-polls resolved, by outcome (delivered, timeout, disconnect, shutdown)."
	return watchState{
		active: m.Gauge("waldo_dbserver_watch_active",
			"Model watch long-polls currently parked."),
		delivered:  m.Counter("waldo_dbserver_watch_total", help, "outcome", "delivered"),
		timeout:    m.Counter("waldo_dbserver_watch_total", help, "outcome", "timeout"),
		disconnect: m.Counter("waldo_dbserver_watch_total", help, "outcome", "disconnect"),
		shutdown:   m.Counter("waldo_dbserver_watch_total", help, "outcome", "shutdown"),
	}
}

// watchTimeout is the long-poll horizon: how long a watch may park before
// the server answers 304 and the client re-arms.
func (s *Server) watchTimeout() time.Duration {
	if s.cfg.WatchTimeout > 0 {
		return s.cfg.WatchTimeout
	}
	return 55 * time.Second
}

// handleModelWatch serves GET /v1/model/watch?channel=C&sensor=K&version=V.
// A request whose If-None-Match names a descriptor parks while that is
// the store's current one: versions count retrains per server, so only
// the validator tells a device arriving from another shard that it holds
// a different model. Without a validator — a device's first watch — it
// parks while the store's version is at most V (default 0, so a fresh
// client gets the current model at once). It answers with the
// descriptor when that changes, 304 at the watch horizon
// (X-Waldo-Model-Version carries the unchanged version), or nothing once
// the client disconnects.
func (s *Server) handleModelWatch(w http.ResponseWriter, r *http.Request) {
	ch, kind, err := parseKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	inm := r.Header.Get("If-None-Match")
	since := 0
	if v := r.URL.Query().Get("version"); v != "" {
		since, err = strconv.Atoi(v)
		if err != nil || since < 0 {
			http.Error(w, "bad version "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
	}
	u, ok := s.lookup(ch, kind)
	if !ok {
		http.Error(w, "no model for this channel/sensor", http.StatusNotFound)
		return
	}
	key := storeKey{ch, kind}
	s.watch.active.Add(1)
	defer s.watch.active.Add(-1)
	horizon := time.NewTimer(s.watchTimeout())
	defer horizon.Stop()
	for {
		// Register before checking: a bump that lands between the check
		// and the select closes the channel we already hold, so the wait
		// below returns instantly instead of sleeping through the event.
		bumped := s.hub.watch(key)
		model, version := u.Model()
		if model != nil && (inm != "" || version > since) {
			blob, encoded, err := s.encodedModel(key, model, version)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if inm == "" || !etagMatches(inm, blob.etag) {
				s.countServed(encoded)
				s.watch.delivered.Inc()
				w.Header().Set("ETag", blob.etag)
				w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(version))
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Write(blob.data) //nolint:errcheck // client went away
				return
			}
		}
		select {
		case <-bumped:
		case <-horizon.C:
			s.watch.timeout.Inc()
			w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(version))
			w.WriteHeader(http.StatusNotModified)
			return
		case <-r.Context().Done():
			s.watch.disconnect.Inc()
			return
		case <-s.closed:
			// Server shutting down: answer instead of pinning the
			// listener's drain until the horizon. 503 sends resilient
			// clients into their backoff-and-re-arm path.
			s.watch.shutdown.Inc()
			w.Header().Set("X-Waldo-Model-Version", strconv.Itoa(version))
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return
		}
	}
}
