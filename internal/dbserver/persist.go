package dbserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/wal"
)

// Open builds a server and, when cfg.DataDir is set, recovers every
// persisted store from disk before serving: WAL segment replay into the
// store's chunks, a deterministic model rebuild at the persisted
// version, and — once any store is recovered — the availability grid,
// built synchronously as Bootstrap builds it.
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
	recovered := false
	for _, ent := range ents {
		ch, kind, ok := wal.ParseStoreDirName(ent.Name())
		if !ok || !ent.IsDir() {
			continue
		}
		if _, err := s.updaterFor(ch, kind); err != nil {
			return nil, fmt.Errorf("dbserver: recover %s: %w", ent.Name(), err)
		}
		recovered = true
	}
	if recovered {
		s.geoidx.Rebuild(context.Background())
	}
	return s, nil
}

// storeDir is the on-disk directory for one store key.
func (s *Server) storeDir(key storeKey) string {
	return filepath.Join(s.cfg.DataDir, wal.StoreDirName(key.ch, key.kind))
}

// openStore opens (or recovers) the durable store for key, which its
// journal appends to and which checkpoints itself every
// Config.SnapshotEvery readings. Called with s.mu write-held from
// updaterFor. Recovery order matters: the persisted state is restored
// into the fresh updater here, before the caller attaches any journal,
// so replayed records are not re-journaled (and not re-tapped into
// replication).
func (s *Server) openStore(key storeKey, u *core.Updater) (*wal.Store, error) {
	w, rec, err := wal.OpenStore(s.storeDir(key), key.ch, key.kind, wal.StoreOptions{
		FS:              s.cfg.WALFS,
		Metrics:         s.metrics,
		Log:             s.cfg.Log,
		CheckpointEvery: s.cfg.SnapshotEvery,
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
	s.wals[key] = w
	return w, nil
}

// FlushWAL blocks until every journaled record of every store is on
// stable storage. The e2e crash harness calls it to mark the durability
// point before a simulated kill.
func (s *Server) FlushWAL() error {
	var first error
	for _, w := range s.walSnapshot() {
		if err := w.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BeginShutdown wakes every parked model watcher (answered 503, so
// clients re-arm elsewhere); uploads are still accepted and journaled. A
// binary calls it once its listener has stopped accepting and before it
// drains requests in flight — a parked long-poll would otherwise pin the
// drain for its whole budget — and calls Close after the drain.
// Idempotent.
func (s *Server) BeginShutdown() {
	s.closeOnce.Do(func() { close(s.closed) })
}

// Close is BeginShutdown, then: wait out the geo grid builder, flush and
// close every durable store's log, which completes a checkpoint already
// due. It deliberately takes none of its own: the data dir stays
// crash-shaped, and recovery replays it identically whether the process
// exited cleanly or died. Idempotent.
func (s *Server) Close() error {
	s.BeginShutdown()
	// Stop grid rebuild scheduling and wait out any in-flight build so
	// shutdown never leaks a builder goroutine.
	s.geoidx.Close()
	var first error
	for _, w := range s.walSnapshot() {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// walSnapshot copies the current store handles out from under the lock.
func (s *Server) walSnapshot() []*wal.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*wal.Store, 0, len(s.wals))
	for _, w := range s.wals {
		out = append(out, w)
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
	if q := r.URL.Query(); q.Get("channel") != "" || q.Get("sensor") != "" {
		ch, kind, err := parseKey(q)
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
		s.mu.RLock()
		store := s.wals[key]
		s.mu.RUnlock()
		if err := store.Checkpoint(); err != nil {
			entry.OK = false
			entry.Error = err.Error()
			allOK = false
		}
		out = append(out, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	if !allOK {
		w.WriteHeader(http.StatusInternalServerError)
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return // client went away
	}
}
