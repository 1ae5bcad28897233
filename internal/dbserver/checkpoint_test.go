package dbserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
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

// gateFS is the wal.FS seam with a gate on one file: while held, the
// checkpoint step that creates it (the next segment's open, or the
// rename that installs checkpoint.bin) blocks for as long as the test
// wants.
type gateFS struct {
	wal.FS
	name    string // the gated file's base name
	mu      sync.Mutex
	held    chan struct{} // non-nil: the gated step blocks until it is closed
	entered chan struct{} // receives once per gated step that blocks
}

func newGateFS(name string) *gateFS {
	return &gateFS{FS: wal.OSFS{}, name: name, entered: make(chan struct{}, 16)} // more than any test's blocked steps
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

func (g *gateFS) wait(path string) {
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	if held != nil && filepath.Base(path) == g.name {
		g.entered <- struct{}{}
		<-held
	}
}

func (g *gateFS) Rename(oldpath, newpath string) error {
	g.wait(newpath)
	return g.FS.Rename(oldpath, newpath)
}

func (g *gateFS) OpenAppend(path string) (wal.File, error) {
	g.wait(path)
	return g.FS.OpenAppend(path)
}

const testKindRTL = sensor.KindRTLSDR

// uploadN pushes n readings for channel 47 through the upload pipeline,
// the way handleUpload does.
func uploadN(t *testing.T, s *Server, n int, seed int64) {
	t.Helper()
	batch := core.UploadBatch{Readings: synthReadings(n, 47, seed), CISpanDB: 0.5}
	if status, err := s.acceptUpload(context.Background(), batch); err != nil {
		t.Fatalf("upload: %d %v", status, err)
	}
}

// flushWAL is the test's barrier: every cut marked before it has
// completed (or failed) when it returns.
func flushWAL(t *testing.T, s *Server) {
	t.Helper()
	if err := s.FlushWAL(); err != nil {
		t.Fatal(err)
	}
}

func checkpointsDone(s *Server) uint64 {
	return s.metrics.Counter("waldo_wal_snapshots_total", "", "store", fmt.Sprintf("%d/%d", 47, int(testKindRTL))).Value()
}

// TestCheckpointTriggerCoalesces pins the trigger: while a checkpoint is
// in flight, uploads that find another one due are not forgotten — the
// log takes a single further checkpoint that covers all of them.
func TestCheckpointTriggerCoalesces(t *testing.T) {
	const every = 100
	fs := newGateFS("checkpoint.bin")
	cfg := durableConfig(t.TempDir())
	cfg.SnapshotEvery = every
	cfg.WALFS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fs.hold()
	uploadN(t, s, every, 1) // due: the flusher takes the cut and blocks installing checkpoint 1
	<-fs.entered
	for i := 0; i < 25; i++ { // 5x the threshold while it is in flight
		uploadN(t, s, every/5, int64(2+i))
	}
	if got := checkpointsDone(s); got != 0 {
		t.Fatalf("%d checkpoints completed while the first is held", got)
	}
	fs.release()
	flushWAL(t, s)

	// One checkpoint for the first threshold, one for everything that
	// arrived during it; nothing due is left behind: short of another
	// threshold, no further checkpoint comes.
	if got := checkpointsDone(s); got != 2 {
		t.Errorf("%d checkpoints completed, want 2", got)
	}
	uploadN(t, s, every-1, 99)
	flushWAL(t, s)
	if got := checkpointsDone(s); got != 2 {
		t.Errorf("%d checkpoints completed after %d more readings, want still 2", got, every-1)
	}
}

// TestCheckpointCountsReadingsJournaledMeanwhile pins the bookkeeping:
// readings journaled while a checkpoint's record is being written count
// towards the next one (the cut did not cover them), so with uploads
// that never outrun the flusher the number of checkpoints is exactly
// journaled / SnapshotEvery — none comes late.
func TestCheckpointCountsReadingsJournaledMeanwhile(t *testing.T) {
	const every = 100
	fs := newGateFS("checkpoint.bin")
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
	flushWAL(t, s)
	for journaled < 5*every {
		upload(20)
		flushWAL(t, s)
		if got, want := checkpointsDone(s), uint64(journaled/every); got != want {
			t.Fatalf("after %d journaled readings: %d checkpoints completed, want %d", journaled, got, want)
		}
	}
}

// TestCloseWaitsForCheckpoint: Close must not return (and must not close
// the store's log) while a due checkpoint is still writing into the data
// dir.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	fs := newGateFS("checkpoint.bin")
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
}

// TestBootstrapPastSnapshotEveryCheckpoints: readings seeded by
// Bootstrap are journaled like any upload's, so a bootstrap past
// SnapshotEvery is checkpointed without waiting for an upload.
func TestBootstrapPastSnapshotEveryCheckpoints(t *testing.T) {
	dataDir := t.TempDir()
	cfg := durableConfig(dataDir)
	cfg.SnapshotEvery = 100
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(synthReadings(350, 47, 1)); err != nil {
		t.Fatal(err)
	}
	flushWAL(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(dataDir, wal.StoreDirName(47, testKindRTL))
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.bin")); err != nil {
		t.Fatalf("no checkpoint record after bootstrapping 350 readings at SnapshotEvery 100: %v", err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if u, ok := s2.lookup(47, testKindRTL); !ok || u.Size() != 350 {
		t.Errorf("recovered store: ok=%v, want 350 readings", ok)
	}
}

// TestCheckpointHoldsNoStoreLock: a checkpoint stalled on the disk — here
// in the open of its next segment — holds no store lock, so the store
// keeps serving its model and accepting uploads meanwhile.
func TestCheckpointHoldsNoStoreLock(t *testing.T) {
	fs := newGateFS("wal.0000000002.log")
	cfg := durableConfig(t.TempDir())
	cfg.WALFS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fs.hold()
	snapshot := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/admin/snapshot?channel=47&sensor=1", "", nil)
		if err != nil {
			t.Error(err)
			snapshot <- 0
			return
		}
		resp.Body.Close()
		snapshot <- resp.StatusCode
	}()
	<-fs.entered

	client := &http.Client{Timeout: 2 * time.Second}
	if resp, err := client.Get(ts.URL + "/v1/model?channel=47&sensor=1"); err != nil {
		t.Errorf("GET /v1/model during a checkpoint: %v", err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/model during a checkpoint = %s", resp.Status)
	}
	up := UploadJSON{CISpanDB: 0.5}
	for _, r := range synthReadings(20, 47, 3) {
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := client.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body)); err != nil {
		t.Errorf("upload during a checkpoint: %v", err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNoContent {
		t.Errorf("upload during a checkpoint = %s", resp.Status)
	}

	fs.release()
	if code := <-snapshot; code != http.StatusOK {
		t.Errorf("POST /v1/admin/snapshot = %d, want 200", code)
	}
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
	if err := s.wals[storeKey{47, testKindRTL}].Checkpoint(); err != nil {
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
