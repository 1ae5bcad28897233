package cluster

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// Replication wire format. The primary ships its journal stream — the
// same mutation order the WAL persists — as length-prefixed frames over
// HTTP POST /v1/repl/apply. Reading batches reuse the stable 67-byte
// binary reading codec from internal/core, so the replication path and
// the durability path serialize measurements identically.
//
//	exchange := u64 incarnation | frame...
//	frame    := u32 length | u64 seq | u8 kind | payload
//	append   := u16 channel | u8 sensor | u32 count | count × 67-byte readings
//	retrain  := u16 channel | u8 sensor | u32 version | u32 trainedCount
//
// The incarnation is a random nonzero identifier minted once per primary
// process; sequence numbers are contiguous within it, starting at 1. A
// replica adopts the first incarnation it sees while still empty and
// from then on follows exactly that stream: frames at or below its
// applied mark are skipped (retries after a partial apply are
// idempotent), a gap above it is refused with 409, and an exchange
// stamped with any other incarnation — a restarted primary, a
// misconfigured topology — is refused outright instead of being
// misread as retry idempotency. Every answer carries the replica's
// applied high-water mark plus the incarnation it follows, which is
// also the primary's ack.
const (
	frameAppend  byte = 1
	frameRetrain byte = 2

	exchangeHeaderSize = 8         // incarnation
	frameHeaderSize    = 4 + 8 + 1 // length + seq + kind
)

// Machine-readable refusal reasons in applyStatus.Reason.
const (
	reasonGap      = "sequence_gap"
	reasonMismatch = "incarnation_mismatch"
	reasonResync   = "resync_required"
	reasonPromoted = "promoted"
)

// newIncarnation mints a random nonzero primary-incarnation identifier.
func newIncarnation() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy source is gone;
		// fall back to a time-derived value rather than refusing to
		// start (uniqueness, not secrecy, is what matters here).
		return mix(uint64(time.Now().UnixNano())) | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// replRecord is one journaled mutation awaiting (or past) shipping.
type replRecord struct {
	kind     byte
	ch       rfenv.Channel
	sensor   sensor.Kind
	readings []dataset.Reading // kind == frameAppend
	version  int               // kind == frameRetrain
	trained  int               // kind == frameRetrain
}

// appendExchangeHeader starts an exchange body: the shipping primary's
// incarnation, ahead of the frames.
func appendExchangeHeader(dst []byte, incarnation uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], incarnation)
	return append(dst, b[:]...)
}

// decodeExchangeHeader splits the incarnation off the front of an
// exchange body.
func decodeExchangeHeader(b []byte) (uint64, []byte, error) {
	if len(b) < exchangeHeaderSize {
		return 0, nil, fmt.Errorf("cluster: exchange truncated: %d bytes", len(b))
	}
	inc := binary.LittleEndian.Uint64(b)
	if inc == 0 {
		return 0, nil, fmt.Errorf("cluster: exchange carries zero incarnation")
	}
	return inc, b[exchangeHeaderSize:], nil
}

// appendFrame renders one record as a wire frame with the given sequence
// number.
func appendFrame(dst []byte, seq uint64, rec *replRecord) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backfilled below
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:8], seq)
	b[8] = rec.kind
	dst = append(dst, b[:]...)
	var kb [3]byte
	binary.LittleEndian.PutUint16(kb[:2], uint16(rec.ch))
	kb[2] = byte(rec.sensor)
	dst = append(dst, kb[:]...)
	switch rec.kind {
	case frameAppend:
		dst = core.AppendReadingsWire(dst, rec.readings)
	case frameRetrain:
		var v [8]byte
		binary.LittleEndian.PutUint32(v[:4], uint32(rec.version))
		binary.LittleEndian.PutUint32(v[4:], uint32(rec.trained))
		dst = append(dst, v[:]...)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// decodeFrame parses one frame off the front of b, returning the
// sequence number, the record, and the unconsumed remainder.
func decodeFrame(b []byte) (uint64, replRecord, []byte, error) {
	if len(b) < frameHeaderSize {
		return 0, replRecord{}, nil, fmt.Errorf("cluster: frame truncated: %d bytes", len(b))
	}
	length := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+length || length < 9+3 {
		return 0, replRecord{}, nil, fmt.Errorf("cluster: frame length %d outside body of %d bytes", length, len(b)-4)
	}
	body, rest := b[4:4+length], b[4+length:]
	seq := binary.LittleEndian.Uint64(body)
	rec := replRecord{
		kind:   body[8],
		ch:     rfenv.Channel(binary.LittleEndian.Uint16(body[9:])),
		sensor: sensor.Kind(body[11]),
	}
	payload := body[12:]
	switch rec.kind {
	case frameAppend:
		rs, tail, err := core.DecodeReadingsWire(payload)
		if err != nil {
			return 0, replRecord{}, nil, fmt.Errorf("cluster: frame %d: %w", seq, err)
		}
		if len(tail) != 0 {
			return 0, replRecord{}, nil, fmt.Errorf("cluster: frame %d: %d trailing bytes", seq, len(tail))
		}
		rec.readings = rs
	case frameRetrain:
		if len(payload) != 8 {
			return 0, replRecord{}, nil, fmt.Errorf("cluster: frame %d: retrain payload is %d bytes", seq, len(payload))
		}
		rec.version = int(binary.LittleEndian.Uint32(payload))
		rec.trained = int(binary.LittleEndian.Uint32(payload[4:]))
	default:
		return 0, replRecord{}, nil, fmt.Errorf("cluster: frame %d: unknown kind %d", seq, rec.kind)
	}
	return seq, rec, rest, nil
}

// applyStatus is the replica's answer to every replication exchange: its
// contiguous applied high-water mark, the primary incarnation it
// follows (0 until it has adopted one), and — on refusals — a
// machine-readable reason.
type applyStatus struct {
	Applied     uint64 `json:"applied"`
	Incarnation uint64 `json:"incarnation"`
	Reason      string `json:"reason,omitempty"`
}

// replicaLink is the shipping state for one replica.
type replicaLink struct {
	url string

	mu     sync.Mutex
	acked  uint64 // highest sequence the replica confirmed applied
	fenced bool   // replica refused our stream; operator resync required

	lag     *telemetry.Gauge
	shipped *telemetry.Counter
	errs    *telemetry.Counter
	resync  *telemetry.Gauge
}

// setFenced flips the link's fence and mirrors it into the resync
// gauge, reporting whether the state changed (so the caller can count
// the fencing error once, not once per 3ms shipping tick).
func (l *replicaLink) setFenced(v bool) bool {
	l.mu.Lock()
	changed := l.fenced != v
	l.fenced = v
	l.mu.Unlock()
	if !changed {
		return false
	}
	if v {
		l.resync.Set(1)
	} else {
		l.resync.Set(0)
	}
	return changed
}

// Replicator ships a primary's journal stream to its replicas. It
// implements dbserver.Tap: the dbserver invokes it under each store's
// lock in apply order, and it only appends to an in-memory log — the
// HTTP shipping happens on one background goroutine per replica, so
// replication never blocks the upload path (asynchronous by design; the
// WAL, not the replica, is what an ack promises).
//
// The log is truncated below the minimum sequence every healthy replica
// has confirmed, so steady-state memory is bounded by the slowest live
// replica's lag, not the primary's lifetime. Records below the
// truncation point are gone: a replica whose mark falls below it (or
// that follows a different incarnation) is fenced — shipping to it
// stops counting as progress, waldo_cluster_replication_resync_needed
// goes to 1, and the operator rebuilds it empty (OPERATIONS.md §3) —
// never silently re-shipped from 1.
type Replicator struct {
	incarnation uint64
	httpc       *http.Client
	interval    time.Duration
	reg         *telemetry.Registry
	lg          *wlog.Logger

	mu   sync.Mutex
	base uint64 // sequences ≤ base are truncated away; log[0] is base+1
	log  []replRecord

	links []*replicaLink
	stopc chan struct{}
	wg    sync.WaitGroup
}

// maxShipRecords caps journal records per replication exchange.
const maxShipRecords = 256

// newReplicator assembles the shipper; start() launches the loops.
func newReplicator(incarnation uint64, replicaURLs []string,
	interval time.Duration, metrics *telemetry.Registry, lg *wlog.Logger) *Replicator {
	r := &Replicator{
		incarnation: incarnation,
		httpc:       &http.Client{Timeout: 10 * time.Second},
		interval:    interval,
		reg:         metrics,
		lg:          lg.Named("repl"),
		stopc:       make(chan struct{}),
	}
	for _, u := range replicaURLs {
		r.links = append(r.links, &replicaLink{
			url: u,
			lag: metrics.Gauge("waldo_cluster_replication_lag_records",
				"Journal records accepted by the primary but not yet confirmed applied by this replica.",
				"replica", u),
			shipped: metrics.Counter("waldo_cluster_replication_shipped_total",
				"Journal records confirmed applied by this replica.", "replica", u),
			errs: metrics.Counter("waldo_cluster_replication_errors_total",
				"Failed replication exchanges with this replica (retried on the next shipping tick).",
				"replica", u),
			resync: metrics.Gauge("waldo_cluster_replication_resync_needed",
				"1 when this replica refused the primary's stream (divergent history or truncated backlog) and must be rebuilt.",
				"replica", u),
		})
	}
	return r
}

func (r *Replicator) start() {
	for _, link := range r.links {
		r.wg.Add(1)
		go r.ship(link)
	}
}

func (r *Replicator) stop() {
	close(r.stopc)
	r.wg.Wait()
}

// TapReadings implements dbserver.Tap. Runs under the store lock: copy
// and enqueue, nothing else. The shipping loop is asynchronous, so the
// originating request's trace ends at the enqueue — each exchange later
// runs under its own repl/ship trace.
func (r *Replicator) TapReadings(_ context.Context, ch rfenv.Channel, kind sensor.Kind, rs []dataset.Reading) {
	rec := replRecord{kind: frameAppend, ch: ch, sensor: kind,
		readings: append([]dataset.Reading(nil), rs...)}
	r.mu.Lock()
	r.log = append(r.log, rec)
	r.mu.Unlock()
}

// TapRetrain implements dbserver.Tap.
func (r *Replicator) TapRetrain(_ context.Context, ch rfenv.Channel, kind sensor.Kind, version, trained int) {
	rec := replRecord{kind: frameRetrain, ch: ch, sensor: kind, version: version, trained: trained}
	r.mu.Lock()
	r.log = append(r.log, rec)
	r.mu.Unlock()
}

// logLen returns the highest assigned sequence number.
func (r *Replicator) logLen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base + uint64(len(r.log))
}

// pending snapshots up to maxShipRecords unshipped records after acked. ok is
// false when acked has fallen below the truncation point — those records
// no longer exist and the caller must fence the link instead of
// shipping. Records are append-only and truncation copies the retained
// tail, so the returned subslice is stable.
func (r *Replicator) pending(acked uint64) (top uint64, recs []replRecord, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	top = r.base + uint64(len(r.log))
	if acked < r.base {
		return top, nil, false
	}
	if acked >= top {
		return top, nil, true
	}
	start := acked - r.base
	end := start + maxShipRecords
	if end > uint64(len(r.log)) {
		end = uint64(len(r.log))
	}
	return top, r.log[start:end], true
}

// truncate drops journal records every healthy replica has confirmed.
// Fenced links are excluded — they will never consume the backlog, and
// holding it for them would grow the primary without bound, which is
// exactly what truncation exists to prevent.
func (r *Replicator) truncate() {
	min := ^uint64(0)
	healthy := false
	for _, link := range r.links {
		link.mu.Lock()
		if !link.fenced && link.acked < min {
			min = link.acked
			healthy = true
		}
		link.mu.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	top := r.base + uint64(len(r.log))
	if !healthy || min > top {
		min = top // every link fenced: nothing will ever consume the log
	}
	if min > r.base {
		// Copy the retained tail so the dropped prefix is actually freed
		// (a plain reslice would pin the whole backing array).
		r.log = append([]replRecord(nil), r.log[min-r.base:]...)
		r.base = min
	}
}

// ship is one replica's shipping loop: every tick, push everything past
// the replica's ack in maxShipRecords chunks until caught up or erroring
// (errors wait for the next tick — the replica being down must not spin
// the primary).
func (r *Replicator) ship(link *replicaLink) {
	defer r.wg.Done()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-t.C:
			for r.shipOnce(link) {
			}
		}
	}
}

// shipOnce pushes one chunk and returns true if it made progress and
// more may be pending. Every exchange that actually carries frames runs
// under its own repl/ship trace (shipping is asynchronous, so there is
// no client request to join); the trace header propagates to the
// replica, whose /v1/repl/apply spans join the same trace ID.
func (r *Replicator) shipOnce(link *replicaLink) bool {
	link.mu.Lock()
	acked := link.acked
	link.mu.Unlock()
	top, recs, ok := r.pending(acked)
	link.lag.Set(float64(top - acked))
	if !ok {
		// The replica's confirmed position predates the truncation point:
		// the records it needs are gone. Fence and surface it.
		if link.setFenced(true) {
			link.errs.Inc()
			r.lg.Error(context.Background(), "replica_fenced",
				"replica", link.url, "reason", "backlog_truncated", "acked", acked)
		}
		return false
	}
	if len(recs) == 0 {
		return false
	}
	sp := r.reg.StartTrace("repl/ship", telemetry.SpanContext{})
	sp.SetAttr("replica", link.url)
	sp.SetAttr("records", fmt.Sprintf("%d", len(recs)))
	ctx := telemetry.ContextWithSpan(context.Background(), sp)
	defer sp.End()
	body := appendExchangeHeader(nil, r.incarnation)
	for i := range recs {
		body = appendFrame(body, acked+uint64(i)+1, &recs[i])
	}
	req, err := http.NewRequest(http.MethodPost, link.url+"/v1/repl/apply", bytes.NewReader(body))
	if err != nil {
		link.errs.Inc()
		sp.Fail(err.Error())
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(telemetry.TraceHeader, sp.Context().Header())
	resp, err := r.httpc.Do(req)
	if err != nil {
		link.errs.Inc()
		sp.Fail(err.Error())
		r.lg.Warn(ctx, "ship_failed", "replica", link.url, "err", err)
		return false
	}
	defer resp.Body.Close()
	var st applyStatus
	if err := decodeJSONBody(resp.Body, &st); err != nil {
		link.errs.Inc()
		sp.Fail(err.Error())
		r.lg.Warn(ctx, "ship_bad_status_body", "replica", link.url, "err", err)
		return false
	}
	if st.Incarnation != r.incarnation {
		// The replica follows a different primary incarnation (or refused
		// to adopt ours because it already holds history). Its mark means
		// nothing to this journal — fence rather than trusting it.
		if link.setFenced(true) {
			link.errs.Inc()
			r.lg.Error(ctx, "replica_fenced", "replica", link.url,
				"reason", st.Reason, "follows", fmt.Sprintf("%016x", st.Incarnation),
				"ships", fmt.Sprintf("%016x", r.incarnation))
		}
		sp.Fail("incarnation mismatch")
		return false
	}
	r.mu.Lock()
	base := r.base
	r.mu.Unlock()
	if st.Applied < base {
		// The replica rejoined our incarnation below the truncation point
		// (only an emptied replica can rewind); its backlog is gone.
		if link.setFenced(true) {
			link.errs.Inc()
			r.lg.Error(ctx, "replica_fenced", "replica", link.url,
				"reason", "rewound_below_truncation", "applied", st.Applied, "base", base)
		}
		sp.Fail("replica below truncation point")
		return false
	}
	link.setFenced(false)
	link.mu.Lock()
	progressed := st.Applied > link.acked
	if progressed {
		link.shipped.Add(st.Applied - link.acked)
	}
	// A forward mark is the normal ack. A backward one (≥ base) means the
	// replica was rebuilt empty and re-adopted this incarnation — rewind
	// and refill it from its mark; the records are still in the log.
	link.acked = st.Applied
	link.mu.Unlock()
	link.lag.Set(float64(top - st.Applied))
	if progressed {
		r.truncate()
	}
	if resp.StatusCode != http.StatusOK {
		link.errs.Inc()
	}
	return progressed && resp.StatusCode == http.StatusOK
}

// Lag returns the largest number of journal records any replica still
// has to apply (0 with no replicas).
func (r *Replicator) Lag() uint64 {
	top := r.logLen()
	var worst uint64
	for _, link := range r.links {
		link.mu.Lock()
		acked := link.acked
		link.mu.Unlock()
		if lag := top - acked; lag > worst {
			worst = lag
		}
	}
	return worst
}

// Drain blocks until every replica has confirmed the entire current
// journal, polling between checks, or until ctx expires.
func (r *Replicator) Drain(ctx context.Context) error {
	for {
		if r.Lag() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: drain: %w (lag %d records)", ctx.Err(), r.Lag())
		case <-time.After(time.Millisecond):
		}
	}
}

// decodeJSONBody reads and decodes a small JSON body with a hard cap.
func decodeJSONBody(r io.Reader, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, 1<<16))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
