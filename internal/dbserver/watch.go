package dbserver

import (
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
