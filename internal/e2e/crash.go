package e2e

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/wsdetect/waldo/internal/geoindex"
)

// CrashConfig shapes a RunCrash scenario.
type CrashConfig struct {
	// DataDir is the durable store directory shared by both server
	// incarnations (required).
	DataDir string
	// AfterCycle is the duty cycle count the first incarnation completes
	// before it is killed; the survivor runs the rest. Must be in
	// [1, runCycles-1] to exercise both sides of the crash.
	AfterCycle int
	// TornTail, when set, appends a partial record frame to every
	// store's newest WAL segment after the kill — the disk image of an
	// append that was in flight (and never acknowledged) when the
	// process died. Recovery must truncate it away.
	TornTail bool
}

// RunCrash executes a harness run with a mid-campaign server crash: the
// first server incarnation bootstraps the database on a durable data
// dir, serves AfterCycle duty cycles, and is killed: its WAL is flushed
// (the durability point; everything past it was never acknowledged),
// then it stops with no snapshot and no write to the data dir, which
// RunCrash checks by hashing the directory before and after. A second
// incarnation recovers from disk alone and serves the remaining cycles
// plus the epilogue.
//
// The returned Result is byte-comparable with Run(cfg) on the same
// Config: recovery rebuilds the store in original order and the model at
// the persisted version, and model rebuilds are deterministic, so the
// decision log, store CSVs, and served versions must all be identical to
// the uninterrupted run. The crash-recovery e2e test asserts exactly
// that. RunCrash itself refuses a recovery whose availability grid, the
// one the second incarnation serves from its first request, differs
// from the grid the first one's stores give at the durability point,
// generation aside.
func RunCrash(cfg Config, crash CrashConfig) (*Result, error) {
	if crash.DataDir == "" {
		return nil, fmt.Errorf("e2e: RunCrash needs a data dir")
	}
	if crash.AfterCycle < 1 || crash.AfterCycle >= runCycles {
		return nil, fmt.Errorf("e2e: crash after cycle %d outside (0, %d)", crash.AfterCycle, runCycles)
	}
	return run(cfg, crash)
}

// verdicts renders a grid without its generation, which a restarted
// server counts afresh.
func verdicts(g *geoindex.Snapshot) []byte {
	v := *g
	v.Generation = 0
	return geoindex.EncodeGrid(&v)
}

// tearSegmentTails appends a short garbage fragment — less than a full
// record header — to the newest WAL segment of every store under
// dataDir, simulating an append torn mid-write by the crash.
func tearSegmentTails(dataDir string) error {
	stores, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	for _, st := range stores {
		if !st.IsDir() {
			continue
		}
		dir := filepath.Join(dataDir, st.Name())
		segs, err := filepath.Glob(filepath.Join(dir, "wal.*.log"))
		if err != nil {
			return err
		}
		if len(segs) == 0 {
			continue
		}
		// Glob sorts lexically and epochs are zero-padded: last is newest.
		f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
