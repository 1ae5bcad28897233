package wal

import (
	"context"
	"encoding/binary"
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

// Store record payload kinds.
const (
	recAppend  byte = 1 // accepted reading batch
	recRetrain byte = 2 // model version bump + trained prefix length
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
// store: a segmented log of accepted batches and retrain markers that is
// never rewritten, plus the checkpoint record that pins what its sealed
// segments hold. It implements core.Journal, so wiring it into an updater
// via SetJournal journals every accepted mutation in apply order.
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
	// scratch is the reusable record-payload buffer for the journal
	// methods. Safe without a lock: core.Journal calls are serialized by
	// the updater's store lock, and Log.Append copies the payload into
	// the pending batch before returning.
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
	if len(payload) == 0 {
		return fmt.Errorf("empty record")
	}
	switch payload[0] {
	case recAppend:
		// Decode straight into the store's chunks: replay builds the
		// store once, with no per-record batch and no regrowth copy
		// (see BenchmarkReplay's allocs assertion).
		rest, err := rec.Readings.AppendWire(payload[1:])
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("append record has %d trailing bytes", len(rest))
		}
		return nil
	case recRetrain:
		version, trained, err := DecodeRetrainRecord(payload)
		if err != nil {
			return err
		}
		if trained > rec.Readings.Len() {
			return fmt.Errorf("retrain record trained on %d of %d readings", trained, rec.Readings.Len())
		}
		rec.ModelVersion = version
		rec.TrainedCount = trained
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", payload[0])
	}
}

// DecodeRetrainRecord parses a retrain-marker record payload.
func DecodeRetrainRecord(payload []byte) (version, trainedCount int, err error) {
	if len(payload) != 9 || payload[0] != recRetrain {
		return 0, 0, fmt.Errorf("malformed retrain record (%d bytes)", len(payload))
	}
	return int(binary.LittleEndian.Uint32(payload[1:])), int(binary.LittleEndian.Uint32(payload[5:])), nil
}

// AppendReadings implements core.Journal: it queues an accepted batch for
// the next group commit. Called under the updater's store lock, so the
// journal order is the store order. A wedged log counts the drop instead
// of blocking ingest (waldo_wal_dropped_records_total; alert on
// waldo_wal_failed). The group-commit enqueue (encode + Append,
// including any backpressure wait against a saturated disk) is
// attributed to the request trace in ctx as a wal/append span.
func (s *Store) AppendReadings(ctx context.Context, rs []dataset.Reading) {
	sp := s.reg.StartSpanCtx(ctx, "wal/append")
	sp.SetAttr("store", StoreDirName(s.ch, s.kind))
	s.scratch = append(s.scratch[:0], recAppend)
	s.scratch = core.AppendReadingsWire(s.scratch, rs)
	if err := s.log.Append(s.scratch); err != nil {
		s.m.dropped.Inc()
		sp.Fail(err.Error())
		s.lg.Error(ctx, "wal_record_dropped",
			"store", StoreDirName(s.ch, s.kind), "kind", "append",
			"readings", len(rs), "err", err)
	}
	sp.End()
}

// buildAppendPayload renders a reading-batch record payload.
func buildAppendPayload(rs []dataset.Reading) []byte {
	payload := make([]byte, 1, 1+4+len(rs)*core.ReadingWireSize)
	payload[0] = recAppend
	return core.AppendReadingsWire(payload, rs)
}

// RecordRetrain implements core.Journal: it queues a retrain marker.
func (s *Store) RecordRetrain(ctx context.Context, version, trainedCount int) {
	payload := make([]byte, 9)
	payload[0] = recRetrain
	binary.LittleEndian.PutUint32(payload[1:], uint32(version))
	binary.LittleEndian.PutUint32(payload[5:], uint32(trainedCount))
	if err := s.log.Append(payload); err != nil {
		s.m.dropped.Inc()
		s.lg.Error(ctx, "wal_record_dropped",
			"store", StoreDirName(s.ch, s.kind), "kind", "retrain",
			"version", version, "err", err)
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
