package dbserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/wal"
)

// walState is one store's persistence handle plus the auto-checkpoint
// bookkeeping.
type walState struct {
	store *wal.Store
	// appended counts readings journaled since the last checkpoint's
	// cut, for the Config.SnapshotEvery policy. It only grows under the
	// updater's store lock (storeJournal), so a checkpoint reads it
	// exactly at its cut.
	appended atomic.Int64
	// running is set while this store's one checkpointer goroutine runs:
	// an upload that finds a checkpoint due and the bit set leaves it to
	// that goroutine, which re-checks before it exits.
	running atomic.Bool
	// starts counts checkpointer goroutines started, so a test can pin
	// that a burst of due triggers starts one.
	starts atomic.Int64
	// checkpointing serializes checkpoints of this store (checkpointer
	// and admin route): each is one rotate-then-record pair.
	checkpointing sync.Mutex
}

// Open builds a server and, when cfg.DataDir is set, recovers every
// persisted store from disk before serving: WAL segment replay into the
// store's chunks, and a deterministic model rebuild at the persisted
// version.
// With no DataDir it is equivalent to New.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		ch, kind, ok := wal.ParseStoreDirName(ent.Name())
		if !ok || !ent.IsDir() {
			continue
		}
		if _, err := s.updaterFor(ch, kind); err != nil {
			return nil, fmt.Errorf("dbserver: recover %s: %w", ent.Name(), err)
		}
	}
	return s, nil
}

// storeDir is the on-disk directory for one store key.
func (s *Server) storeDir(key storeKey) string {
	return filepath.Join(s.cfg.DataDir, wal.StoreDirName(key.ch, key.kind))
}

// openStore opens (or recovers) the durable store for key and returns
// the WAL state its journal appends to. Called with s.mu write-held
// from updaterFor. Recovery order matters: the persisted state is
// restored into the fresh updater here, before the caller attaches any
// journal, so replayed records are not re-journaled (and not re-tapped
// into replication).
func (s *Server) openStore(key storeKey, u *core.Updater) (*walState, error) {
	w, rec, err := wal.OpenStore(s.storeDir(key), key.ch, key.kind, wal.StoreOptions{
		FS:      s.cfg.WALFS,
		Metrics: s.metrics,
		Log:     s.cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	if rec.Readings.Len() > 0 || rec.ModelVersion > 0 {
		if err := u.Restore(&rec.Readings, rec.ModelVersion, rec.TrainedCount); err != nil {
			w.Close()
			return nil, fmt.Errorf("restore: %w", err)
		}
	}
	ws := &walState{store: w}
	s.wals[key] = ws
	return ws, nil
}

// maybeSnapshot starts key's checkpointer when the SnapshotEvery policy
// says a checkpoint is due and none is running. Non-blocking: the upload
// path does an atomic load and, at most once per burst of due
// checkpoints, spawns the goroutine.
func (s *Server) maybeSnapshot(key storeKey) {
	if s.cfg.SnapshotEvery <= 0 {
		return
	}
	s.mu.RLock()
	ws := s.wals[key]
	s.mu.RUnlock()
	if ws == nil || ws.appended.Load() < int64(s.cfg.SnapshotEvery) {
		return
	}
	if !ws.running.CompareAndSwap(false, true) {
		return // the running checkpointer re-checks before it exits
	}
	// Close closes s.closed under the same mutex, so it either sees this
	// goroutine in the wait group or stops it from starting.
	s.checkpointerMu.Lock()
	defer s.checkpointerMu.Unlock()
	select {
	case <-s.closed:
		ws.running.Store(false)
		return
	default:
	}
	s.checkpointers.Add(1)
	ws.starts.Add(1)
	go s.checkpointWhileDue(key, ws)
}

// checkpointWhileDue is a store's checkpointer: it checkpoints while one
// is due, then clears the running bit and looks once more, so a trigger
// that lost the bit to this goroutine in its last moments is not dropped.
// A failed checkpoint (counted in waldo_wal_snapshot_errors_total) ends
// the run; the next upload starts another.
func (s *Server) checkpointWhileDue(key storeKey, ws *walState) {
	defer s.checkpointers.Done()
	due := func() bool { return ws.appended.Load() >= int64(s.cfg.SnapshotEvery) }
	for {
		for due() {
			if err := s.snapshotStore(key); err != nil {
				ws.running.Store(false)
				return
			}
		}
		ws.running.Store(false)
		if !due() || !ws.running.CompareAndSwap(false, true) {
			return
		}
	}
}

// snapshotStore checkpoints one store: inside the updater's checkpoint
// lock it reads the store's counts and has the WAL seal its segment —
// making the cut exact — then writes the fixed-size checkpoint record off
// the lock. The cost does not depend on the store's size. Checkpoints of
// one store run one at a time.
func (s *Server) snapshotStore(key storeKey) error {
	u, ok := s.lookup(key.ch, key.kind)
	s.mu.RLock()
	ws := s.wals[key]
	s.mu.RUnlock()
	if !ok || ws == nil {
		return fmt.Errorf("dbserver: no durable store for %v/%v", key.ch, key.kind)
	}
	ws.checkpointing.Lock()
	defer ws.checkpointing.Unlock()

	var (
		epoch    uint64
		readings int
		version  int
		trained  int
		covered  int64
		err      error
	)
	u.Checkpoint(func(view core.ReadingView, v, tc int) {
		readings, version, trained = view.Len(), v, tc
		covered = ws.appended.Load()
		epoch, err = ws.store.BeginCheckpoint()
	})
	if err != nil {
		return err
	}
	if err := ws.store.CompleteCheckpoint(epoch, readings, version, trained); err != nil {
		return err
	}
	// Only what the cut covered: readings journaled while the record was
	// being written count towards the next checkpoint.
	ws.appended.Add(-covered)
	return nil
}

// FlushWAL blocks until every journaled record of every store is on
// stable storage. The e2e crash harness calls it to mark the durability
// point before a simulated kill.
func (s *Server) FlushWAL() error {
	var first error
	for _, ws := range s.walSnapshot() {
		if err := ws.store.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BeginShutdown wakes every parked model watcher (answered 503, so
// clients re-arm elsewhere) and stops new background checkpoints from
// starting; uploads are still accepted and journaled. A binary calls it
// once its listener has stopped accepting and before it drains requests
// in flight — a parked long-poll would otherwise pin the drain for its
// whole budget — and calls Close after the drain. Idempotent.
func (s *Server) BeginShutdown() {
	s.closeOnce.Do(func() {
		s.checkpointerMu.Lock()
		close(s.closed)
		s.checkpointerMu.Unlock()
	})
}

// Close is BeginShutdown, then: wait out background checkpoints and the
// geo grid builder, flush and close every durable store's log. It
// deliberately does not checkpoint: the data dir stays crash-shaped, and
// recovery replays it identically whether the process exited cleanly or
// died. Idempotent.
func (s *Server) Close() error {
	s.BeginShutdown()
	// Stop grid rebuild scheduling and wait out any in-flight build so
	// shutdown never leaks a builder goroutine.
	s.geoidx.Close()
	if s.ownRec {
		s.recorder.Close()
	}
	// No checkpointer starts any more; none may still be writing into a
	// store directory when its log closes (or when Close returns).
	s.checkpointers.Wait()
	var first error
	for _, ws := range s.walSnapshot() {
		if err := ws.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// walSnapshot copies the current store handles out from under the lock.
func (s *Server) walSnapshot() []*walState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*walState, 0, len(s.wals))
	for _, ws := range s.wals {
		out = append(out, ws)
	}
	return out
}

// SnapshotJSON is one store's entry in the /v1/admin/snapshot response.
type SnapshotJSON struct {
	Channel int    `json:"channel"`
	Sensor  int    `json:"sensor"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
}

// handleAdminSnapshot takes a checkpoint: of one store when
// channel and sensor are given, of every store otherwise. It answers 503
// when persistence is disabled (no DataDir), and reports per-store
// outcomes so a partial failure is visible.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DataDir == "" {
		http.Error(w, "persistence disabled: server has no data dir", http.StatusServiceUnavailable)
		return
	}
	var keys []storeKey
	if r.URL.Query().Get("channel") != "" || r.URL.Query().Get("sensor") != "" {
		ch, kind, err := parseKey(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, ok := s.lookup(ch, kind); !ok {
			http.Error(w, "no store for this channel/sensor", http.StatusNotFound)
			return
		}
		keys = []storeKey{{ch, kind}}
	} else {
		keys, _ = s.storeSnapshot()
	}
	out := make([]SnapshotJSON, 0, len(keys))
	allOK := true
	for _, key := range keys {
		entry := SnapshotJSON{Channel: int(key.ch), Sensor: int(key.kind), OK: true}
		if err := s.snapshotStore(key); err != nil {
			entry.OK = false
			entry.Error = err.Error()
			allOK = false
		}
		out = append(out, entry)
	}
	if !allOK {
		w.WriteHeader(http.StatusInternalServerError)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return // client went away
	}
}
