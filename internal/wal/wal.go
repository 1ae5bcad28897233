// Package wal is the durable persistence layer of the Waldo spectrum
// database: per store, a segmented append-only log that is never
// rewritten plus a fixed-size checkpoint record, so a crash or deploy no
// longer discards the measurement campaign (the evolving-database
// requirement of arXiv:1303.3962, applied to the central store of ICDCS
// 2017 §IV). The store only ever accretes, and so does its log: a reading
// is encoded and written once, when it is accepted.
//
// # Layout
//
// Each (channel, sensor) store gets its own directory under the server's
// data dir, holding the log segments, named by a monotonically increasing
// epoch, and one checkpoint record:
//
//	<dataDir>/ch47-s1/
//	    wal.0000000001.log  sealed segment: fsynced, never written again
//	    wal.0000000002.log  sealed segment
//	    wal.0000000003.log  active segment: records appended since epoch 3 began
//	    checkpoint.bin      37 bytes: what the segments below epoch 3 hold
//	    snapshot.bin        only if a binary that still compacted left one: see below
//
// A log record is length-prefixed and CRC-checksummed:
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// (little-endian). Two payload kinds exist at the [Store] level: an
// accepted reading batch, and a retrain marker (new model version + the
// store prefix length it was trained on). Readings use the fixed-size
// binary codec of internal/core (core.ReadingWireSize bytes each).
//
// # Group commit
//
// [Log.Append] only frames the record into an in-memory batch — no
// syscall, no wakeup. A single flusher goroutine drains the batch with
// one write and one fsync when a durability barrier ([Log.Sync]) arrives
// or the coalescing window (flushInterval) elapses, so the
// upload request path never waits on the disk and a whole window of
// appends shares one fsync (classic group commit with a commit delay, as
// in PostgreSQL's commit_delay). The delay only spans records that were
// never acknowledged as durable: Sync still forces an immediate flush.
// If a write or fsync fails the log becomes wedged (fail-stop): later
// appends return the sticky error and waldo_wal_failed reads 1, but
// already-acknowledged data is never silently dropped.
//
// # Checkpoints and recovery
//
// A checkpoint costs the same whatever the store holds. It is taken in
// two steps that bracket the caller-supplied store lock
// (core.Updater.Checkpoint): inside the lock the log drains, fsyncs and
// rotates to a fresh segment epoch ([Store.BeginCheckpoint]), which seals
// everything journaled so far into immutable segments and makes the cut
// exact — the segments below the new epoch hold precisely the state the
// lock holder sees. Outside the lock the checkpoint record — that epoch,
// the reading count, the model version and its trained count — is written
// to a temp name, fsynced and renamed over checkpoint.bin
// ([Store.CompleteCheckpoint]). No reading is re-encoded and no segment
// is deleted: the sealed segments are the checkpoint's data, the record
// is what lets recovery hold them to account.
//
// Recovery ([OpenStore]) replays every segment in epoch order, decoding
// straight into the store's chunks (core.ReadingLog). The final segment
// may end in a torn record (truncated and counted in
// waldo_wal_replay_torn_total — an in-flight append that was never
// acknowledged); a bad CRC or framing anywhere (waldo_wal_replay_corrupt_total),
// a segment missing from the epoch sequence, a checkpoint record that is
// corrupt or belongs to another store, or sealed segments that do not add
// up to the counts the record pinned all refuse to open, with an error
// naming the file, rather than serve a store with a hole in it. A crash
// between the two checkpoint steps recovers to the same state: the old
// record still describes an older cut of the same segments.
//
// A directory written by a binary from before the checkpoint record holds
// snapshot.bin, the v1 whole-store snapshot those binaries rewrote at
// every checkpoint (deleting the segments it covered), and
// only the segments at or above its epoch. It opens unchanged: the
// snapshot is read as an immutable base (never written again), the
// segments continue it, and the first checkpoint adds checkpoint.bin
// beside it.
package wal

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

const (
	// recordHeader is the length-prefix plus CRC framing overhead.
	recordHeader = 8
	// maxRecord bounds a single record payload; anything larger in a
	// length prefix is corruption, not data.
	maxRecord = 64 << 20

	segPrefix = "wal."
	segSuffix = ".log"
)

// segName renders the file name of the segment with the given epoch.
func segName(epoch uint64) string {
	return fmt.Sprintf("%s%010d%s", segPrefix, epoch, segSuffix)
}

// parseSegName extracts the epoch from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+10+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var epoch uint64
	for _, c := range name[len(segPrefix) : len(segPrefix)+10] {
		if c < '0' || c > '9' {
			return 0, false
		}
		epoch = epoch*10 + uint64(c-'0')
	}
	return epoch, true
}

// appendFrame appends one framed record to dst — header (length + CRC)
// and payload — building Append's pending batch in place.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// logMetrics are the telemetry handles shared by a store's log; all are
// nil-safe no-ops when no registry is configured.
type logMetrics struct {
	appends       *telemetry.Counter
	appendedBytes *telemetry.Counter
	fsyncSeconds  *telemetry.Histogram
	fsyncErrors   *telemetry.Counter
	failed        *telemetry.Gauge
	replayRecords *telemetry.Counter
	replayTorn    *telemetry.Counter
	replayCorrupt *telemetry.Counter
	replaySeconds *telemetry.Histogram
	snapshots     *telemetry.Counter
	snapshotErrs  *telemetry.Counter
	dropped       *telemetry.Counter
}

func newLogMetrics(reg *telemetry.Registry, scope string) logMetrics {
	return logMetrics{
		appends: reg.Counter("waldo_wal_appends_total",
			"Records appended to the write-ahead log.", "store", scope),
		appendedBytes: reg.Counter("waldo_wal_appended_bytes_total",
			"Bytes appended to the write-ahead log (framing included).", "store", scope),
		fsyncSeconds: reg.Histogram("waldo_wal_fsync_seconds",
			"Group-commit flush duration (one write + one fsync per batch).", nil, "store", scope),
		fsyncErrors: reg.Counter("waldo_wal_fsync_errors_total",
			"Write or fsync failures; the first one wedges the log (fail-stop).", "store", scope),
		failed: reg.Gauge("waldo_wal_failed",
			"1 when the log is wedged by a write/fsync error, else 0.", "store", scope),
		replayRecords: reg.Counter("waldo_wal_replay_records_total",
			"Records applied during crash recovery.", "store", scope),
		replayTorn: reg.Counter("waldo_wal_replay_torn_total",
			"Torn final records truncated during recovery (unacknowledged tail writes).", "store", scope),
		replayCorrupt: reg.Counter("waldo_wal_replay_corrupt_total",
			"Corrupt records (bad CRC or framing) rejected during recovery.", "store", scope),
		replaySeconds: reg.Histogram("waldo_wal_replay_seconds",
			"Crash-recovery duration: replay of every segment (after a v1 snapshot, if one is present).", nil, "store", scope),
		snapshots: reg.Counter("waldo_wal_snapshots_total",
			"Checkpoints completed (segment sealed, checkpoint record written).", "store", scope),
		snapshotErrs: reg.Counter("waldo_wal_snapshot_errors_total",
			"Checkpoints that failed (the previous checkpoint record stays in force).", "store", scope),
		dropped: reg.Counter("waldo_wal_dropped_records_total",
			"Journal records dropped because the log was wedged.", "store", scope),
	}
}

// Log is one store's segmented append-only record log with group-commit
// batching. Append and Sync are safe for concurrent use; Rotate must not
// race Append (the store guarantees this by rotating under the same lock
// that orders appends).
type Log struct {
	dir string
	fs  FS
	m   logMetrics
	lg  *wlog.Logger

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []byte       // framed records awaiting the flusher
	spare    []byte       // recycled batch buffer (swap, don't realloc)
	waiters  []chan error // Sync barriers for the next flush
	epoch    uint64       // epoch of the active segment
	f        File         // active segment, append position at EOF
	writing  bool         // flusher is mid write+fsync
	dirty    bool         // bytes written since the last fsync
	syncDue  bool         // the coalescing timer fired (or a drain forces a sync)
	timerSet bool         // a coalescing timer is pending
	err      error        // sticky fail-stop error
	closed   bool
}

// flushInterval bounds how long appended-but-unflushed records may
// sit in memory with no Sync barrier waiting. Batching the write+fsync
// over this window (instead of one per append) is what keeps the durable
// upload path within a few percent of the in-memory one; the window only
// spans records that were never acknowledged as durable, so no Sync
// caller can observe it.
const flushInterval = 5 * time.Millisecond

// openLog opens (creating if needed) the log in dir for appending,
// resuming at the highest existing segment epoch. Call replaySegments
// before the first Append.
func openLog(dir string, fs FS, m logMetrics, lg *wlog.Logger, epoch uint64) (*Log, error) {
	l := &Log{dir: dir, fs: fs, m: m, lg: lg, epoch: epoch}
	l.cond = sync.NewCond(&l.mu)
	f, err := fs.OpenAppend(filepath.Join(dir, segName(epoch)))
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %d: %w", epoch, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f = f
	go l.flusher()
	return l, nil
}

// maxPendingBytes bounds the in-memory group-commit batch. Without a
// bound, appenders outrunning the disk grow the pending buffer without
// limit, and — worse for the hot path — a buffer that never stops
// growing pays a growslice copy of roughly its own size on every
// append (the allocator can never settle on a high-water capacity).
// Profiles of the batch ingest path showed that copy storm dominating
// the durable variant. Past the bound, Append blocks until the flusher
// drains: brief backpressure against a device that genuinely can't keep
// up, instead of unbounded memory and quadratic copying.
const maxPendingBytes = 1 << 20

// Append frames payload and queues it for the next group commit. It
// normally returns immediately — durability lags by at most the
// coalescing window (use Sync to wait for it) — but blocks while the
// pending batch is at maxPendingBytes. The only error is the sticky
// fail-stop state of a wedged log.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) >= maxPendingBytes && l.err == nil && !l.closed {
		if !l.syncDue {
			l.syncDue = true
			l.cond.Broadcast()
		}
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	l.pending = appendFrame(l.pending, payload)
	l.m.appends.Inc()
	l.m.appendedBytes.Add(uint64(recordHeader + len(payload)))
	// No wakeup: the request path only frames into the pending buffer.
	// The flusher runs when the coalescing timer fires, a Sync barrier
	// arrives, or the log closes — so a burst of appends costs zero
	// syscalls and zero context switches until the window elapses.
	l.armTimerLocked()
	return nil
}

// Sync blocks until every previously appended record is on stable
// storage, returning the flush error if the log wedged.
func (l *Log) Sync() error {
	done := make(chan error, 1)
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: sync on closed log")
	}
	l.waiters = append(l.waiters, done)
	l.cond.Broadcast()
	l.mu.Unlock()
	return <-done
}

// flusher is the single background goroutine implementing group commit:
// it sleeps until a Sync barrier arrives, the coalescing timer fires, or
// the log closes, then drains everything that accumulated since the last
// flush in one write. The fsync piggybacks on the same cycle when a
// barrier waits (or on close); a timer-driven cycle syncs too, so dirty
// bytes never outlive one window. A steady stream of fire-and-forget
// appends thus costs one write + one fsync per window, not per record.
// While a flush is in flight new appends pile into the next batch.
func (l *Log) flusher() {
	for {
		l.mu.Lock()
		for len(l.waiters) == 0 && !l.syncDue && !l.closed {
			l.cond.Wait()
		}
		if l.closed && len(l.pending) == 0 && len(l.waiters) == 0 && !l.dirty {
			l.mu.Unlock()
			return
		}
		batch := l.pending
		waiters := l.waiters
		syncDue := l.syncDue
		l.pending = l.spare[:0]
		l.spare = nil
		l.waiters = nil
		l.syncDue = false
		f := l.f
		wasDirty := l.dirty
		l.writing = true
		l.mu.Unlock()

		var err error
		wrote := false
		if len(batch) > 0 && l.err == nil {
			_, err = f.Write(batch)
			wrote = err == nil
		}
		synced := false
		needSync := (wrote || wasDirty) && err == nil && l.err == nil &&
			(len(waiters) > 0 || syncDue || l.closed)
		if needSync {
			start := time.Now()
			err = f.Sync()
			l.m.fsyncSeconds.Observe(time.Since(start).Seconds())
			synced = err == nil
		}
		if err != nil {
			l.m.fsyncErrors.Inc()
		}

		l.mu.Lock()
		l.writing = false
		if l.spare == nil && batch != nil {
			l.spare = batch[:0]
		}
		if err != nil && l.err == nil {
			l.err = fmt.Errorf("wal: flush: %w", err)
			l.m.failed.Set(1)
			// Fail-stop is deliberate; make it loud. Every subsequent
			// append drops, so this line is the root cause of the
			// wal_record_dropped stream that follows.
			l.lg.Error(context.Background(), "wal_wedged", "dir", l.dir, "err", err)
		}
		if l.err != nil {
			l.dirty = false // wedged: nothing further to sync
		} else if synced {
			l.dirty = false
		} else if wrote || wasDirty {
			l.dirty = true
			l.armTimerLocked()
		}
		sticky := l.err
		l.cond.Broadcast() // wake rotate/close drains
		l.mu.Unlock()
		for _, w := range waiters {
			w <- sticky
		}
	}
}

// armTimerLocked schedules the deferred flush for pending or dirty bytes
// with no barrier waiting. Called with l.mu held.
func (l *Log) armTimerLocked() {
	if l.timerSet || l.closed {
		return
	}
	l.timerSet = true
	time.AfterFunc(flushInterval, func() {
		l.mu.Lock()
		l.timerSet = false
		if (len(l.pending) > 0 || l.dirty) && l.err == nil {
			l.syncDue = true
			l.cond.Broadcast()
		}
		l.mu.Unlock()
	})
}

// drainLocked waits (with l.mu held) until the flusher has written and
// fsynced everything queued so far, forcing the flush through rather than
// waiting out the coalescing window.
func (l *Log) drainLocked() {
	for len(l.pending) > 0 || l.writing || l.dirty {
		if !l.syncDue {
			l.syncDue = true
			l.cond.Broadcast()
		}
		l.cond.Wait()
	}
}

// rotate drains the queue, closes the active segment, and starts a fresh
// one under the next epoch, returning the new epoch. The caller must
// prevent concurrent Appends (the store rotates inside the updater's
// checkpoint lock, which also orders appends).
func (l *Log) rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: rotate on closed log")
	}
	l.drainLocked()
	if l.err != nil {
		return 0, l.err
	}
	next := l.epoch + 1
	f, err := l.fs.OpenAppend(filepath.Join(l.dir, segName(next)))
	if err != nil {
		return 0, fmt.Errorf("wal: open segment %d: %w", next, err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: sync dir: %w", err)
	}
	if err := l.f.Close(); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: close segment %d: %w", l.epoch, err)
	}
	l.f = f
	l.epoch = next
	return next, nil
}

// Close drains pending appends, stops the flusher, and closes the active
// segment. It does not checkpoint: the on-disk state stays crash-shaped
// and recovery replays it identically.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.drainLocked()
	l.closed = true
	l.cond.Broadcast()
	err := l.err
	f := l.f
	l.mu.Unlock()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// refuse wraps a fault that stops recovery with the file it was found in
// and the runbook section that says what may be done about it.
func refuse(path string, err error) error {
	return fmt.Errorf("wal: %s: %w (see OPERATIONS.md, recovering from corruption)", path, err)
}

// ReplayStats summarizes one recovery pass over the log segments.
type ReplayStats struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of intact records applied.
	Records int
	// TornTail is true when the final segment ended in a partial record
	// that was truncated away (an append in flight at crash time, never
	// acknowledged as durable).
	TornTail bool
	// CorruptAt, when non-nil, reports the segment epoch and byte offset
	// of a corrupt (bad CRC / bad framing) record. Replay stops there.
	CorruptAt *CorruptRecord
}

// CorruptRecord locates a rejected record.
type CorruptRecord struct {
	Epoch  uint64
	Offset int64
}

// replaySegments replays every segment with epoch >= minEpoch in epoch
// order, calling begin before each segment's first record and apply for
// each intact record payload. The epochs must run from minEpoch without a
// gap: sealed segments are never deleted, so a hole is lost data. A short
// record at the end of the last segment is a torn tail: it is counted,
// the file is truncated back to the last intact record, and recovery
// succeeds. A bad CRC, an impossible length prefix, or a short record
// anywhere else is corruption: it is counted, replay stops, and the error
// tells the operator where (OPERATIONS.md documents the recovery
// procedure). It returns the epoch to resume appending at.
func replaySegments(dir string, fs FS, m logMetrics, minEpoch uint64, begin func(epoch uint64) error, apply func(payload []byte) error) (uint64, ReplayStats, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return 0, ReplayStats{}, fmt.Errorf("wal: list segments: %w", err)
	}
	var epochs []uint64
	for _, name := range names {
		if epoch, ok := parseSegName(name); ok {
			if epoch < minEpoch {
				// Left by a pre-checkpoint-record binary that crashed
				// between installing its v1 snapshot and deleting the
				// segments it covered: the snapshot holds them.
				if err := fs.Remove(filepath.Join(dir, name)); err != nil {
					return 0, ReplayStats{}, fmt.Errorf("wal: remove stale %s: %w", name, err)
				}
				continue
			}
			epochs = append(epochs, epoch)
		}
	}
	var stats ReplayStats
	for i, epoch := range epochs {
		path := filepath.Join(dir, segName(epoch))
		if want := minEpoch + uint64(i); epoch != want {
			return 0, stats, refuse(path, fmt.Errorf("segment epoch gap: %s is missing", segName(want)))
		}
		if err := begin(epoch); err != nil {
			return 0, stats, err
		}
		last := i == len(epochs)-1
		data, err := fs.ReadFile(path)
		if err != nil {
			return 0, stats, fmt.Errorf("wal: read segment %d: %w", epoch, err)
		}
		stats.Segments++
		valid, torn, err := replayOne(data, last, apply, &stats, m)
		if err != nil {
			stats.CorruptAt = &CorruptRecord{Epoch: epoch, Offset: valid}
			m.replayCorrupt.Inc()
			return 0, stats, refuse(path, fmt.Errorf("segment %d corrupt at offset %d: %w", epoch, valid, err))
		}
		if torn {
			stats.TornTail = true
			m.replayTorn.Inc()
			if err := fs.Truncate(path, valid); err != nil {
				return 0, stats, fmt.Errorf("wal: truncate torn tail of segment %d: %w", epoch, err)
			}
		}
	}
	top := minEpoch // no segment yet: appending starts where the base ends
	if n := len(epochs); n > 0 {
		top = epochs[n-1]
	}
	return top, stats, nil
}

// replayOne walks one segment's records. It returns the byte offset of
// the last intact record boundary and whether a torn tail follows it; a
// non-nil error means corruption (only tolerated as torn when it runs to
// the end of the final segment).
func replayOne(data []byte, lastSegment bool, apply func([]byte) error, stats *ReplayStats, m logMetrics) (int64, bool, error) {
	off := 0
	for off < len(data) {
		rem := len(data) - off
		if rem < recordHeader {
			if lastSegment {
				return int64(off), true, nil
			}
			return int64(off), false, fmt.Errorf("short record header (%d bytes)", rem)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecord {
			return int64(off), false, fmt.Errorf("impossible record length %d", n)
		}
		if rem < recordHeader+n {
			if lastSegment {
				return int64(off), true, nil
			}
			return int64(off), false, fmt.Errorf("short record payload (%d of %d bytes)", rem-recordHeader, n)
		}
		payload := data[off+recordHeader : off+recordHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			return int64(off), false, fmt.Errorf("CRC mismatch on %d-byte record", n)
		}
		if err := apply(payload); err != nil {
			return int64(off), false, err
		}
		stats.Records++
		m.replayRecords.Inc()
		off += recordHeader + n
	}
	return int64(off), false, nil
}
