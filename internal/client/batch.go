package client

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
)

// UploadBinary submits a reading batch as one core batch frame (POST
// /v1/upload/batch) — the same semantics as Upload (atomic apply, safe
// retries, backoff, breaker) at a fraction of the wire and server cost:
// 67 bytes per reading instead of ~140 of JSON, and one binary decode
// instead of a reflective unmarshal. The upload's CI span rides in the
// X-Waldo-CI-Span header.
func (c *Client) UploadBinary(ctx context.Context, batch core.UploadBatch) error {
	if len(batch.Readings) == 0 {
		return fmt.Errorf("client: empty upload")
	}
	frame, err := core.EncodeBatchFrame(batch.Readings)
	if err != nil {
		return fmt.Errorf("client: encode batch: %w", err)
	}
	hdr := http.Header{"Content-Type": {"application/octet-stream"}}
	hdr.Set(dbserver.CISpanHeader, strconv.FormatFloat(batch.CISpanDB, 'g', -1, 64))
	return c.sendUpload(ctx, "/v1/upload/batch", frame, hdr)
}

// BufferConfig parameterizes an UploadBuffer.
type BufferConfig struct {
	// FlushSize triggers a synchronous flush once a (channel, sensor)
	// group holds this many readings; 0 means 256. The trigger is
	// backpressure by design: the Add that crosses the threshold pays for
	// the flush, so an offline stretch cannot grow the buffer without
	// bound while a goroutine naps.
	FlushSize int
	// FlushInterval, when positive, flushes every pending group on a
	// background ticker so trickle-rate readings still reach the database
	// promptly. 0 disables the ticker (size/Close flushes only).
	FlushInterval time.Duration
}

// UploadBuffer batches readings client-side and ships them as binary
// batch frames: the WSD-side half of the 10x ingest path. Readings
// accumulate per (channel, sensor) — a server batch must be single-store
// — and flush when a group reaches FlushSize, when FlushInterval fires,
// and on Close. A failed flush re-queues the group in front of newer
// readings, so ordering holds and nothing uploads twice: a group is
// dropped from the buffer only after the server acknowledged its frame,
// and the server applies each frame atomically.
type UploadBuffer struct {
	c   *Client
	cfg BufferConfig

	mu     sync.Mutex
	groups map[cacheKey]*bufGroup
	order  []cacheKey // flush order: oldest group first
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// bufGroup is one (channel, sensor) pending batch.
type bufGroup struct {
	readings []dataset.Reading
	// ciSpan is the widest confidence-interval span among the
	// contributing batches: the conservative merge, since the server's α′
	// gate judges the batch by its span.
	ciSpan float64
}

// NewUploadBuffer returns a buffer shipping through c.
func (c *Client) NewUploadBuffer(cfg BufferConfig) *UploadBuffer {
	if cfg.FlushSize <= 0 {
		cfg.FlushSize = 256
	}
	b := &UploadBuffer{
		c:      c,
		cfg:    cfg,
		groups: make(map[cacheKey]*bufGroup),
		stop:   make(chan struct{}),
	}
	if cfg.FlushInterval > 0 {
		b.wg.Add(1)
		go b.tick()
	}
	return b
}

// tick is the background interval flusher.
func (b *UploadBuffer) tick() {
	defer b.wg.Done()
	t := time.NewTicker(b.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// A failed background flush has no caller to return to; its
			// readings are re-queued and retried on the next flush.
			_ = b.Flush(context.Background())
		case <-b.stop:
			return
		}
	}
}

// Add appends a batch's readings to the buffer, flushing any group the
// addition grows past FlushSize. The batch may mix channels and sensors;
// readings are regrouped per store. An error reports a flush failure —
// the readings stay queued for the next flush either way.
func (b *UploadBuffer) Add(batch core.UploadBatch) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("client: upload buffer closed")
	}
	var due []cacheKey
	for _, r := range batch.Readings {
		key := cacheKey{r.Channel, r.Sensor}
		g, ok := b.groups[key]
		if !ok {
			g = &bufGroup{}
			b.groups[key] = g
			b.order = append(b.order, key)
		}
		g.readings = append(g.readings, r)
		if batch.CISpanDB > g.ciSpan {
			g.ciSpan = batch.CISpanDB
		}
		if len(g.readings) == b.cfg.FlushSize {
			due = append(due, key)
		}
	}
	b.mu.Unlock()
	var firstErr error
	for _, key := range due {
		if err := b.flushKey(context.Background(), key); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Pending reports the number of buffered, un-acked readings.
func (b *UploadBuffer) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.groups {
		n += len(g.readings)
	}
	return n
}

// Flush ships every pending group now, oldest first. On failure the
// unshipped groups (including the failed one) remain queued; already
// acknowledged groups are gone and can never be re-sent.
func (b *UploadBuffer) Flush(ctx context.Context) error {
	for {
		b.mu.Lock()
		if len(b.order) == 0 {
			b.mu.Unlock()
			return nil
		}
		key := b.order[0]
		b.mu.Unlock()
		if err := b.flushKey(ctx, key); err != nil {
			return err
		}
	}
}

// flushKey ships one group's frame. The group is detached from the
// buffer under the lock, uploaded outside it (so a slow exchange never
// blocks Add), and merged back in front on failure.
func (b *UploadBuffer) flushKey(ctx context.Context, key cacheKey) error {
	b.mu.Lock()
	g := b.groups[key]
	if g == nil || len(g.readings) == 0 {
		b.mu.Unlock()
		return nil
	}
	delete(b.groups, key)
	b.removeFromOrder(key)
	b.mu.Unlock()

	start := time.Now()
	err := b.c.UploadBinary(ctx, core.UploadBatch{CISpanDB: g.ciSpan, Readings: g.readings})
	if err != nil {
		b.c.flushFailed.Inc()
		b.requeue(key, g)
		return err
	}
	b.c.flushSeconds.Observe(time.Since(start).Seconds())
	b.c.flushOK.Inc()
	b.c.flushReadings.Add(uint64(len(g.readings)))
	return nil
}

// requeue returns a failed group to the front of the buffer, merging
// with any readings that arrived for the same store during the attempt —
// the failed frame was never acknowledged, so re-sending every reading
// in it is exactly-once from the store's point of view (the server
// applies whole frames atomically; this frame applied zero readings).
func (b *UploadBuffer) requeue(key cacheKey, g *bufGroup) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if newer, ok := b.groups[key]; ok {
		g.readings = append(g.readings, newer.readings...)
		if newer.ciSpan > g.ciSpan {
			g.ciSpan = newer.ciSpan
		}
		b.removeFromOrder(key)
	}
	b.groups[key] = g
	b.order = append([]cacheKey{key}, b.order...)
}

// removeFromOrder drops key from the flush order. Callers hold b.mu.
func (b *UploadBuffer) removeFromOrder(key cacheKey) {
	for i, k := range b.order {
		if k == key {
			b.order = append(b.order[:i], b.order[i+1:]...)
			return
		}
	}
}

// Close stops the interval flusher and ships everything still pending.
// Further Adds fail. The buffer stays flushable (and re-Closeable) if
// this final flush errors, so a caller can retry once connectivity
// returns.
func (b *UploadBuffer) Close() error {
	b.mu.Lock()
	alreadyClosed := b.closed
	b.closed = true
	b.mu.Unlock()
	if !alreadyClosed {
		close(b.stop)
		b.wg.Wait()
	}
	return b.Flush(context.Background())
}
