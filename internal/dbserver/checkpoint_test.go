package dbserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wal"
)

// gateFS is the wal.FS seam with a gate on checkpoint-record installs
// (the rename that ends every checkpoint, off the store lock): while
// held, a checkpoint stays in flight for as long as the test wants.
type gateFS struct {
	wal.FS
	mu      sync.Mutex
	held    chan struct{} // non-nil: installs block until it is closed
	entered chan struct{} // receives once per install that blocks
}

func newGateFS() *gateFS {
	return &gateFS{FS: wal.OSFS{}, entered: make(chan struct{}, 16)} // more than any test's blocked installs
}

func (g *gateFS) hold() {
	g.mu.Lock()
	g.held = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateFS) release() {
	g.mu.Lock()
	close(g.held)
	g.held = nil
	g.mu.Unlock()
}

func (g *gateFS) Rename(oldpath, newpath string) error {
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	if held != nil && strings.HasSuffix(newpath, "checkpoint.bin") {
		g.entered <- struct{}{}
		<-held
	}
	return g.FS.Rename(oldpath, newpath)
}

const testKindRTL = sensor.KindRTLSDR

// uploadN pushes n readings for channel 47 through the upload pipeline
// and its checkpoint trigger, the way handleUpload does.
func uploadN(t *testing.T, s *Server, n int, seed int64) {
	t.Helper()
	batch := core.UploadBatch{Readings: synthReadings(n, 47, seed), CISpanDB: 0.5}
	if status, err := s.acceptUpload(context.Background(), batch); err != nil {
		t.Fatalf("upload: %d %v", status, err)
	}
	s.maybeSnapshot(storeKey{47, testKindRTL})
}

func checkpointsDone(s *Server) uint64 {
	return s.metrics.Counter("waldo_wal_snapshots_total", "", "store", fmt.Sprintf("%d/%d", 47, int(testKindRTL))).Value()
}

// TestCheckpointTriggerCoalesces pins the trigger: while a checkpoint is
// in flight, uploads that find another one due neither start goroutines
// nor get forgotten — the store's one checkpointer takes a single further
// checkpoint that covers all of them before it exits.
func TestCheckpointTriggerCoalesces(t *testing.T) {
	const every = 100
	fs := newGateFS()
	cfg := durableConfig(t.TempDir())
	cfg.SnapshotEvery = every
	cfg.WALFS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := storeKey{47, testKindRTL}

	fs.hold()
	uploadN(t, s, every, 1) // due: starts the checkpointer, which blocks installing checkpoint 1
	<-fs.entered
	for i := 0; i < 25; i++ { // 5x the threshold while it is in flight
		uploadN(t, s, every/5, int64(2+i))
	}
	ws := s.wals[key]
	if got := ws.starts.Load(); got != 1 {
		t.Errorf("%d checkpointer goroutines started during one in-flight checkpoint, want 1", got)
	}
	if got := checkpointsDone(s); got != 0 {
		t.Fatalf("%d checkpoints completed while the first is held", got)
	}
	fs.release()
	s.checkpointers.Wait()

	if got := ws.starts.Load(); got > 2 {
		t.Errorf("%d checkpointer goroutines started, want <= 2", got)
	}
	// One checkpoint for the first threshold, one for everything that
	// arrived during it; nothing due is left behind.
	if got := checkpointsDone(s); got != 2 {
		t.Errorf("%d checkpoints completed, want 2", got)
	}
	if left := ws.appended.Load(); left != 0 {
		t.Errorf("%d journaled readings not covered by a checkpoint after the checkpointer exited", left)
	}
}

// TestCheckpointCountsReadingsJournaledMeanwhile pins the bookkeeping:
// readings journaled while a checkpoint's record is being written count
// towards the next one (the cut did not cover them), so with uploads
// that never outrun the checkpointer the number of checkpoints is exactly
// journaled / SnapshotEvery — none comes late.
func TestCheckpointCountsReadingsJournaledMeanwhile(t *testing.T) {
	const every = 100
	fs := newGateFS()
	cfg := durableConfig(t.TempDir())
	cfg.SnapshotEvery = every
	cfg.WALFS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	journaled := 0
	upload := func(n int) {
		uploadN(t, s, n, int64(journaled))
		journaled += n
	}
	fs.hold()
	upload(every) // checkpoint 1 cut here, covering exactly these
	<-fs.entered
	upload(40) // journaled during checkpoint 1: belongs to checkpoint 2
	fs.release()
	s.checkpointers.Wait()
	for journaled < 5*every {
		upload(20)
		s.checkpointers.Wait()
		if got, want := checkpointsDone(s), uint64(journaled/every); got != want {
			t.Fatalf("after %d journaled readings: %d checkpoints completed, want %d", journaled, got, want)
		}
	}
}

// TestCloseWaitsForCheckpoint: Close must not return (and must not close
// the store's log) while a background checkpoint is still writing into
// the data dir.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	fs := newGateFS()
	dataDir := t.TempDir()
	cfg := durableConfig(dataDir)
	cfg.SnapshotEvery = 10
	cfg.WALFS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.hold()
	uploadN(t, s, 20, 1)
	<-fs.entered

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a checkpoint was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	fs.release()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	dir := filepath.Join(dataDir, wal.StoreDirName(47, testKindRTL))
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.bin")); err != nil {
		t.Errorf("the in-flight checkpoint did not complete before Close returned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.bin.tmp")); !os.IsNotExist(err) {
		t.Errorf("checkpoint temp file left behind: %v", err)
	}
	// A trigger after Close starts nothing.
	s.maybeSnapshot(storeKey{47, testKindRTL})
	s.checkpointers.Wait()
}

// copyTree copies a fixture directory so a test can write into it.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeFromV1DataDir opens a data dir written by the f6dee89
// binary (v1 snapshot.bin + the segments after it; see the fixture's
// README): it must serve the export and model bytes that binary served,
// take a checkpoint in the current format without touching the v1 files,
// and recover to the same bytes again.
func TestUpgradeFromV1DataDir(t *testing.T) {
	fixture := filepath.Join("..", "wal", "testdata", "v1-f6dee89")
	wantCSV, err := os.ReadFile(filepath.Join(fixture, "export.csv"))
	if err != nil {
		t.Fatal(err)
	}
	wantModel, err := os.ReadFile(filepath.Join(fixture, "model.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	copyTree(t, filepath.Join(fixture, "store"), dataDir)
	storeDir := filepath.Join(dataDir, wal.StoreDirName(47, testKindRTL))
	v1Snapshot, err := os.ReadFile(filepath.Join(storeDir, "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// What waldo-server -classifier nb configures.
	cfg := Config{
		Constructor: core.ConstructorConfig{ClusterK: 3, Classifier: core.KindNB, Features: features.SetLocationRSSCFT},
		DataDir:     dataDir,
	}

	check := func(s *Server, when string) {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if got := exportCSV(t, ts, 47, 1); got != string(wantCSV) {
			t.Errorf("%s: /v1/export differs from what the f6dee89 binary served", when)
		}
		resp, err := http.Get(ts.URL + "/v1/model?channel=47&sensor=1")
		if err != nil {
			t.Fatal(err)
		}
		model, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v := resp.Header.Get("X-Waldo-Model-Version"); v != "3" {
			t.Errorf("%s: model version %s, want 3", when, v)
		}
		// Model bytes are pinned where the fixture was written.
		if runtime.GOARCH == "amd64" && !bytes.Equal(model, wantModel) {
			t.Errorf("%s: /v1/model differs from what the f6dee89 binary served", when)
		}
	}

	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open the v1 data dir: %v", err)
	}
	check(s, "first open")
	if err := s.snapshotStore(storeKey{47, testKindRTL}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "checkpoint.bin")); err != nil {
		t.Fatalf("no checkpoint record after the checkpoint: %v", err)
	}
	if after, err := os.ReadFile(filepath.Join(storeDir, "snapshot.bin")); err != nil || !bytes.Equal(after, v1Snapshot) {
		t.Fatalf("the v1 snapshot is no longer the file the old binary wrote (err %v)", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after a checkpoint: %v", err)
	}
	defer s2.Close()
	check(s2, "after a checkpoint")
}

// TestExportStreamsAcrossChunks: the export of a store that spans several
// chunks is the same CSV the flat encoder writes for the same readings.
func TestExportStreamsAcrossChunks(t *testing.T) {
	s := New(Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
	defer s.Close()
	u, err := s.updaterFor(rfenv.Channel(47), testKindRTL)
	if err != nil {
		t.Fatal(err)
	}
	all := synthReadings(20000, 47, 9)
	for lo := 0; lo < len(all); lo += 777 {
		u.Bootstrap(all[lo:min(lo+777, len(all))])
	}
	if chunks := len(u.View().Chunks()); chunks < 3 {
		t.Fatalf("store of %d readings is %d chunks; the test needs several", len(all), chunks)
	}
	var want bytes.Buffer
	if err := dataset.WriteCSV(&want, all); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got := exportCSV(t, ts, 47, 1); got != want.String() {
		t.Error("chunked export differs from the flat CSV of the same readings")
	}
}
