package wal

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// StoreDirName renders the on-disk directory name for a store key, e.g.
// "ch47-s1" for channel 47, sensor kind 1.
func StoreDirName(ch rfenv.Channel, kind sensor.Kind) string {
	return fmt.Sprintf("ch%d-s%d", int(ch), int(kind))
}

// ParseStoreDirName inverts StoreDirName, rejecting names that are not a
// store directory (so unrelated files in a data dir are ignored).
func ParseStoreDirName(name string) (rfenv.Channel, sensor.Kind, bool) {
	var ch, s int
	if n, err := fmt.Sscanf(name, "ch%d-s%d", &ch, &s); n != 2 || err != nil {
		return 0, 0, false
	}
	if name != StoreDirName(rfenv.Channel(ch), sensor.Kind(s)) {
		return 0, 0, false
	}
	return rfenv.Channel(ch), sensor.Kind(s), true
}

// StoreOptions parameterizes OpenStore.
type StoreOptions struct {
	// FS is the filesystem to persist through; nil means the real one
	// (OSFS). Tests and the chaos layer inject fault-carrying FS values.
	FS FS
	// Metrics receives the waldo_wal_* series, labeled with the store
	// identity; nil leaves the store uninstrumented.
	Metrics *telemetry.Registry
	// Log, when set, receives structured events for the paths that used
	// to fail silently into counters: replay truncation/corruption, a
	// wedged log, dropped journal records, snapshot failures. nil
	// disables logging (every wlog method is nil-safe).
	Log *wlog.Logger
}

// Recovered is the state OpenStore rebuilt from disk, to be fed into
// core.Updater.Restore.
type Recovered struct {
	// Readings is the full trusted store in original append order,
	// decoded from disk straight into the chunks Restore adopts.
	Readings core.ReadingLog
	// ModelVersion and TrainedCount describe the last completed retrain
	// (0, 0 when the store crashed before its first).
	ModelVersion int
	TrainedCount int
	// Stats summarizes the replay (segments visited, records applied,
	// torn-tail truncation).
	Stats ReplayStats
}

// Store is the durable persistence of one (channel, sensor) reading
// store: a segmented log of store mutation records (core.ParseRecord)
// that is never rewritten, plus the checkpoint record that pins what its
// sealed segments hold. Append takes a record as opaque bytes; recovery
// parses each one with core.ParseRecord.
type Store struct {
	dir  string
	fs   FS
	ch   rfenv.Channel
	kind sensor.Kind
	m    logMetrics
	// reg mints wal/append spans into request traces (nil-safe).
	reg *telemetry.Registry
	lg  *wlog.Logger
	log *Log
	// scratch is AppendReadings' record buffer; Log.Append copies out of it.
	scratch []byte
}

// OpenStore opens (creating if needed) the durable store rooted at dir
// and recovers its persisted state: a v1 snapshot as the base if an older
// binary left one, then every log segment from there (from epoch 1
// without one) in order, tolerating a torn final record. It refuses to
// open — naming the file — when a segment is missing from the sequence,
// or when what the sealed segments hold disagrees with the checkpoint
// record. The returned log is open for appending.
func OpenStore(dir string, ch rfenv.Channel, kind sensor.Kind, opts StoreOptions) (*Store, *Recovered, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	scope := fmt.Sprintf("%d/%d", int(ch), int(kind))
	m := newLogMetrics(opts.Metrics, scope)
	lg := opts.Log.Named("wal")
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create store dir: %w", err)
	}

	start := time.Now()
	rec := &Recovered{}
	minEpoch := uint64(1)
	if data, err := fs.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		st, err := decodeSnapshot(data, ch, kind)
		if err != nil {
			return nil, nil, refuse(filepath.Join(dir, snapshotName), err)
		}
		rec.Readings = st.readings
		rec.ModelVersion = st.modelVersion
		rec.TrainedCount = st.trainedCount
		minEpoch = st.epoch
	}
	// A record older than the v1 base was superseded by it (an older
	// binary ran on this directory after a newer one).
	var cp *checkpoint
	if data, err := fs.ReadFile(filepath.Join(dir, checkpointName)); err == nil {
		c, err := decodeCheckpoint(data, ch, kind)
		if err != nil {
			return nil, nil, refuse(filepath.Join(dir, checkpointName), err)
		}
		if c.epoch >= minEpoch {
			cp = &c
		}
	}
	top, stats, err := replaySegments(dir, fs, m, minEpoch, func(epoch uint64) error {
		if cp == nil || epoch != cp.epoch {
			return nil
		}
		if got := (checkpoint{epoch, rec.ModelVersion, rec.TrainedCount, rec.Readings.Len()}); got != *cp {
			return refuse(filepath.Join(dir, checkpointName), fmt.Errorf(
				"segments below epoch %d hold %d readings and model v%d trained on %d, the checkpoint recorded %d readings and model v%d trained on %d",
				epoch, got.readings, got.modelVersion, got.trainedCount, cp.readings, cp.modelVersion, cp.trainedCount))
		}
		return nil
	}, func(payload []byte) error {
		return applyRecord(rec, payload)
	})
	rec.Stats = stats
	if err != nil {
		return nil, nil, err
	}
	if cp != nil && cp.epoch > top {
		return nil, nil, refuse(filepath.Join(dir, checkpointName), fmt.Errorf(
			"checkpoint was cut at segment epoch %d, the newest segment is %d", cp.epoch, top))
	}
	m.replaySeconds.Observe(time.Since(start).Seconds())
	if stats.TornTail {
		lg.Warn(context.Background(), "wal_torn_tail_truncated", "dir", dir)
	}
	if stats.CorruptAt != nil {
		lg.Error(context.Background(), "wal_corrupt_record",
			"dir", dir, "epoch", stats.CorruptAt.Epoch, "offset", stats.CorruptAt.Offset)
	}
	lg.Info(context.Background(), "wal_recovered", "dir", dir,
		"segments", stats.Segments, "records", stats.Records,
		"readings", rec.Readings.Len(), "model_version", rec.ModelVersion)

	log, err := openLog(dir, fs, m, lg, top)
	if err != nil {
		return nil, nil, err
	}
	return &Store{dir: dir, fs: fs, ch: ch, kind: kind, m: m,
		reg: opts.Metrics, lg: lg, log: log}, rec, nil
}

// applyRecord folds one replayed record into the recovered state.
func applyRecord(rec *Recovered, payload []byte) error {
	r, err := core.ParseRecord(payload)
	if err != nil {
		return err
	}
	if r.Kind == core.RecordAppend {
		// Decode straight into the store's chunks: replay builds the
		// store once, with no per-record batch and no regrowth copy
		// (see BenchmarkReplay's allocs assertion).
		_, err := rec.Readings.AppendWire(r.Batch)
		return err
	}
	if r.TrainedCount > rec.Readings.Len() {
		return fmt.Errorf("retrain record trained on %d of %d readings", r.TrainedCount, rec.Readings.Len())
	}
	rec.ModelVersion = r.Version
	rec.TrainedCount = r.TrainedCount
	return nil
}

// Append queues one store mutation record for the next group commit.
// The journal calls it under the updater's store lock, so the log order
// is the store order. A wedged log counts the drop instead of blocking
// ingest (waldo_wal_dropped_records_total; alert on waldo_wal_failed).
// The enqueue, including any backpressure wait against a saturated disk,
// is attributed to the request trace in ctx as a wal/append span.
func (s *Store) Append(ctx context.Context, rec []byte) {
	sp := s.reg.StartSpanCtx(ctx, "wal/append")
	sp.SetAttr("store", StoreDirName(s.ch, s.kind))
	if err := s.log.Append(rec); err != nil {
		s.m.dropped.Inc()
		sp.Fail(err.Error())
		s.lg.Error(ctx, "wal_record_dropped",
			"store", StoreDirName(s.ch, s.kind), "kind", rec[0], "bytes", len(rec), "err", err)
	}
	sp.End()
}

// AppendReadings journals rs as append records of at most
// core.MaxBatchReadings readings each — Append for a caller that holds
// readings rather than records.
func (s *Store) AppendReadings(ctx context.Context, rs []dataset.Reading) {
	for len(rs) > 0 {
		s.scratch, rs = core.AppendReadingsRecord(s.scratch[:0], rs)
		s.Append(ctx, s.scratch)
	}
}

// Sync blocks until every queued record is on stable storage.
func (s *Store) Sync() error { return s.log.Sync() }

// BeginCheckpoint seals the active segment (drained, fsynced, never
// written again) by rotating the log to a fresh one, and returns the new
// segment's epoch. Call it inside core.Updater.Checkpoint, so the counts
// captured there align exactly with the segment cut: the segments below
// the returned epoch hold precisely that state.
func (s *Store) BeginCheckpoint() (uint64, error) {
	return s.log.rotate()
}

// CompleteCheckpoint records what the store held at the cut BeginCheckpoint
// made — reading count, model version, trained count — by atomically
// replacing the fixed-size checkpoint record (temp file, fsync, rename,
// dir fsync). The sealed segments are the checkpoint's data: nothing is
// re-encoded or deleted, so the cost does not depend on the store's size.
// Call it after Checkpoint returns, off the store lock.
func (s *Store) CompleteCheckpoint(epoch uint64, readings, modelVersion, trainedCount int) error {
	err := writeCheckpoint(s.dir, s.fs, s.ch, s.kind, checkpoint{
		epoch:        epoch,
		modelVersion: modelVersion,
		trainedCount: trainedCount,
		readings:     readings,
	})
	if err != nil {
		s.m.snapshotErrs.Inc()
		s.lg.Error(context.Background(), "wal_snapshot_failed",
			"store", StoreDirName(s.ch, s.kind), "epoch", epoch, "err", err)
		return err
	}
	s.m.snapshots.Inc()
	return nil
}

// Close drains and closes the log. No checkpoint is taken: the directory
// stays crash-shaped and OpenStore replays it identically, which is the
// point — a clean shutdown and a kill -9 recover through the same path.
func (s *Store) Close() error { return s.log.Close() }
