package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

func campaignBatch(w *testWorld, ch rfenv.Channel, n int) core.UploadBatch {
	rs := w.camp.Readings(ch, sensor.KindRTLSDR)
	if len(rs) > n {
		rs = rs[:n]
	}
	return core.UploadBatch{CISpanDB: 0.5, Readings: rs}
}

func TestUploadBinary(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	before := w.server.StoreSize(47, sensor.KindRTLSDR)
	batch := campaignBatch(w, 47, 32)
	if err := w.client.UploadBinary(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if got := w.server.StoreSize(47, sensor.KindRTLSDR); got != before+len(batch.Readings) {
		t.Errorf("store %d → %d, want +%d", before, got, len(batch.Readings))
	}
}

func TestUploadBinaryRejected(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	batch := campaignBatch(w, 47, 8)
	batch.CISpanDB = 99 // fails the α′ gate → 422, terminal
	if err := w.client.UploadBinary(context.Background(), batch); err == nil {
		t.Fatal("wide-span batch accepted")
	}
	if err := w.client.UploadBinary(context.Background(), core.UploadBatch{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestUploadBufferSizeFlush(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	reg := telemetry.New()
	w.client.SetMetrics(reg)
	before := w.server.StoreSize(47, sensor.KindRTLSDR)
	buf := w.client.NewUploadBuffer(BufferConfig{FlushSize: 10})
	rs := w.camp.Readings(47, sensor.KindRTLSDR)[:25]
	for i := 0; i < len(rs); i++ {
		if err := buf.Add(core.UploadBatch{CISpanDB: 0.5, Readings: rs[i : i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	// 25 adds at FlushSize 10 → two size-triggered flushes, 5 pending.
	if got := w.server.StoreSize(47, sensor.KindRTLSDR); got != before+20 {
		t.Errorf("after size flushes store grew %d, want 20", got-before)
	}
	if got := buf.Pending(); got != 5 {
		t.Errorf("pending = %d, want 5", got)
	}
	if err := buf.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.server.StoreSize(47, sensor.KindRTLSDR); got != before+25 {
		t.Errorf("after close store grew %d, want 25", got-before)
	}
	if got := buf.Pending(); got != 0 {
		t.Errorf("pending after close = %d, want 0", got)
	}
	if err := buf.Add(campaignBatch(w, 47, 1)); err == nil {
		t.Error("add after close accepted")
	}
	if got := reg.Counter("waldo_client_flush_total", "", "outcome", "ok").Value(); got != 3 {
		t.Errorf("flush ok = %d, want 3", got)
	}
	if got := reg.Counter("waldo_client_flush_readings_total", "").Value(); got != 25 {
		t.Errorf("flush readings = %d, want 25", got)
	}
}

func TestUploadBufferIntervalFlush(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	before := w.server.StoreSize(47, sensor.KindRTLSDR)
	buf := w.client.NewUploadBuffer(BufferConfig{FlushSize: 1000, FlushInterval: 10 * time.Millisecond})
	defer buf.Close()
	if err := buf.Add(campaignBatch(w, 47, 7)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.server.StoreSize(47, sensor.KindRTLSDR) != before+7 {
		if time.Now().After(deadline) {
			t.Fatalf("interval flush never shipped: store grew %d",
				w.server.StoreSize(47, sensor.KindRTLSDR)-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUploadBufferGroupsByStore proves a mixed-channel batch splits into
// per-store frames (the server rejects mixed batches).
func TestUploadBufferGroupsByStore(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47, 51})
	buf := w.client.NewUploadBuffer(BufferConfig{FlushSize: 1000})
	mixed := core.UploadBatch{CISpanDB: 0.5}
	mixed.Readings = append(mixed.Readings, w.camp.Readings(47, sensor.KindRTLSDR)[:6]...)
	mixed.Readings = append(mixed.Readings, w.camp.Readings(51, sensor.KindRTLSDR)[:4]...)
	before47 := w.server.StoreSize(47, sensor.KindRTLSDR)
	before51 := w.server.StoreSize(51, sensor.KindRTLSDR)
	if err := buf.Add(mixed); err != nil {
		t.Fatal(err)
	}
	if err := buf.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.server.StoreSize(47, sensor.KindRTLSDR) - before47; got != 6 {
		t.Errorf("ch47 grew %d, want 6", got)
	}
	if got := w.server.StoreSize(51, sensor.KindRTLSDR) - before51; got != 4 {
		t.Errorf("ch51 grew %d, want 4", got)
	}
}

// TestUploadBufferRequeueNoDuplicates drives flushes through a server
// that fails the first attempt of every frame: each flush re-queues, the
// retry ships exactly once, and the store ends with no duplicates.
func TestUploadBufferRequeueNoDuplicates(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	reg := telemetry.New()

	var fail atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/upload/batch" && fail.CompareAndSwap(true, false) {
			http.Error(rw, "injected", http.StatusInternalServerError)
			return
		}
		w.server.Handler().ServeHTTP(rw, r)
	}))
	defer proxy.Close()

	c, err := NewWithConfig(proxy.URL, Config{
		HTTPClient: proxy.Client(),
		Retry:      RetryPolicy{MaxAttempts: 1}, // no transparent retry: the buffer must requeue
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(reg)
	buf := c.NewUploadBuffer(BufferConfig{FlushSize: 1000})
	before := w.server.StoreSize(47, sensor.KindRTLSDR)
	rs := w.camp.Readings(47, sensor.KindRTLSDR)[:12]

	fail.Store(true)
	if err := buf.Add(core.UploadBatch{CISpanDB: 0.5, Readings: rs}); err != nil {
		t.Fatal(err)
	}
	if err := buf.Flush(context.Background()); err == nil {
		t.Fatal("flush through failing server succeeded")
	}
	if got := buf.Pending(); got != 12 {
		t.Fatalf("failed flush left %d pending, want 12 requeued", got)
	}
	if got := w.server.StoreSize(47, sensor.KindRTLSDR); got != before {
		t.Fatalf("failed flush leaked %d readings into the store", got-before)
	}
	// More readings arrive while the link is down; the retry ships both
	// the requeued frame and the new ones, once each.
	more := w.camp.Readings(47, sensor.KindRTLSDR)[12:20]
	if err := buf.Add(core.UploadBatch{CISpanDB: 0.5, Readings: more}); err != nil {
		t.Fatal(err)
	}
	if err := buf.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := w.server.StoreSize(47, sensor.KindRTLSDR); got != before+20 {
		t.Errorf("store grew %d, want exactly 20 (no duplicates, no losses)", got-before)
	}
	if got := buf.Pending(); got != 0 {
		t.Errorf("pending = %d, want 0", got)
	}
	if got := reg.Counter("waldo_client_flush_total", "", "outcome", "failed").Value(); got != 1 {
		t.Errorf("flush failed = %d, want 1", got)
	}
	if got := reg.Counter("waldo_client_flush_readings_total", "").Value(); got != 20 {
		t.Errorf("acked flush readings = %d, want 20", got)
	}
}

func TestWatchModelDelivers(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	reg := telemetry.New()
	w.client.SetMetrics(reg)

	// First watch with an empty cache returns the current model at once.
	m, n, err := w.client.WatchModel(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || n == 0 {
		t.Fatalf("watch returned model=%v bytes=%d", m, n)
	}
	if v := w.client.CachedModelVersion(47, sensor.KindRTLSDR); v != "1" {
		t.Fatalf("cached version = %q, want 1", v)
	}

	// A second watch parks; a server-side retrain pushes version 2.
	type result struct {
		m   *core.Model
		err error
	}
	got := make(chan result, 1)
	go func() {
		m, _, err := w.client.WatchModel(context.Background(), 47, sensor.KindRTLSDR)
		got <- result{m, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the watch park
	if err := w.client.Upload(context.Background(), core.UploadBatch{CISpanDB: 0.5,
		Readings: w.camp.Readings(47, sensor.KindRTLSDR)[:16]}); err != nil {
		t.Fatal(err)
	}
	if err := w.client.RequestRetrain(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if v := w.client.CachedModelVersion(47, sensor.KindRTLSDR); v != "2" {
			t.Errorf("cached version after push = %q, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never returned after retrain")
	}
	if got := reg.Counter("waldo_client_watch_total", "", "outcome", "delivered").Value(); got != 2 {
		t.Errorf("watch delivered = %d, want 2", got)
	}
}

// TestWatchModelRearms proves a server horizon expiry (304) re-arms the
// same WatchModelCtx call instead of erroring out.
func TestWatchModelRearms(t *testing.T) {
	env := newTestWorld(t, []rfenv.Channel{47})
	srv := dbserverWithWatchTimeout(t, env, 20*time.Millisecond)
	c, err := New(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.SetMetrics(reg)
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.WatchModel(ctx, 47, sensor.KindRTLSDR)
		done <- err
	}()
	// Let at least two horizons expire, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("waldo_client_watch_total", "", "outcome", "rearm").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watch never re-armed through a 304")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("canceled watch returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled watch never returned")
	}
}

// dbserverWithWatchTimeout spins a second server over the same campaign
// with a short watch horizon.
func dbserverWithWatchTimeout(t *testing.T, w *testWorld, horizon time.Duration) *httptest.Server {
	t.Helper()
	srv := dbserver.New(dbserver.Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		WatchTimeout: horizon,
	})
	var rs []dataset.Reading
	rs = append(rs, w.camp.Readings(47, sensor.KindRTLSDR)...)
	if err := srv.Bootstrap(rs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}
