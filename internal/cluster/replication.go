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

	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// Replication wire format. The primary ships its journal stream — the
// same mutation order the WAL persists, as the same store mutation
// records (core.ParseRecord) — as length-prefixed frames over HTTP POST
// /v1/repl/apply. A frame splices the record's store key in after its
// kind byte:
//
//	exchange := u64 incarnation | frame...
//	frame    := u32 length | u64 seq | rec[0] | u16 channel | u8 sensor | rec[1:]
//
// An exchange carries at most maxShipRecords frames and, past its first,
// at most maxShipBytes of them, below the replica's applyBodyCap.
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
	exchangeHeaderSize = 8                 // incarnation
	frameHeaderSize    = 4 + 8 + 1 + 2 + 1 // length + seq + kind + channel + sensor

	// applyBodyCap bounds one exchange body at the replica.
	applyBodyCap = 64 << 20
	// maxShipRecords and maxShipBytes bound one exchange at the primary.
	maxShipRecords = 256
	maxShipBytes   = applyBodyCap / 4
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

// appendExchangeHeader starts an exchange body: the shipping primary's
// incarnation, ahead of the frames.
func appendExchangeHeader(dst []byte, incarnation uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, incarnation)
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

// appendFrame appends rec, a record of the store ch/kind, to dst as the
// wire frame with sequence number seq.
func appendFrame(dst []byte, seq uint64, ch rfenv.Channel, kind sensor.Kind, rec []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameHeaderSize-4+len(rec)-1))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, rec[0])
	dst = binary.LittleEndian.AppendUint16(dst, uint16(ch))
	dst = append(dst, byte(kind))
	return append(dst, rec[1:]...)
}

// frame is one decoded replication frame.
type frame struct {
	seq  uint64
	ch   rfenv.Channel
	kind sensor.Kind
	rec  []byte // the store mutation record, its key spliced back out
}

// decodeFrame parses one frame off the front of b, returning it and the
// unconsumed remainder. The record is the replica's to parse.
func decodeFrame(b []byte) (frame, []byte, error) {
	if len(b) < frameHeaderSize {
		return frame{}, nil, fmt.Errorf("cluster: frame truncated: %d bytes", len(b))
	}
	length := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+length || length < frameHeaderSize-4 {
		return frame{}, nil, fmt.Errorf("cluster: frame length %d outside body of %d bytes", length, len(b)-4)
	}
	body, rest := b[4:4+length], b[4+length:]
	return frame{
		seq:  binary.LittleEndian.Uint64(body),
		ch:   rfenv.Channel(binary.LittleEndian.Uint16(body[9:])),
		kind: sensor.Kind(body[11]),
		rec:  append([]byte{body[8]}, body[12:]...),
	}, rest, nil
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
	url  string
	grew chan struct{} // 1-buffered: the journal grew since the shipper last looked

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
// the fencing error once, not once per exchange).
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
// lock in apply order, and it only frames the record into an in-memory
// log — the HTTP shipping happens on one background goroutine per
// replica, so replication never blocks the upload path (asynchronous by
// design; the WAL, not the replica, is what an ack promises).
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
	reg         *telemetry.Registry
	lg          *wlog.Logger

	mu   sync.Mutex
	base uint64   // sequences ≤ base are truncated away; log[0] is base+1
	log  [][]byte // log[i] is the wire frame of sequence base+i+1

	links []*replicaLink
	stopc chan struct{}
	wg    sync.WaitGroup
}

// newReplicator assembles the shipper; start() launches the loops.
func newReplicator(incarnation uint64, replicaURLs []string, metrics *telemetry.Registry, lg *wlog.Logger) *Replicator {
	r := &Replicator{
		incarnation: incarnation,
		httpc:       &http.Client{Timeout: 10 * time.Second},
		reg:         metrics,
		lg:          lg.Named("repl"),
		stopc:       make(chan struct{}),
	}
	for _, u := range replicaURLs {
		r.links = append(r.links, &replicaLink{
			url:  u,
			grew: make(chan struct{}, 1),
			lag: metrics.Gauge("waldo_cluster_replication_lag_records",
				"Journal records accepted by the primary but not yet confirmed applied by this replica.",
				"replica", u),
			shipped: metrics.Counter("waldo_cluster_replication_shipped_total",
				"Journal records confirmed applied by this replica.", "replica", u),
			errs: metrics.Counter("waldo_cluster_replication_errors_total",
				"Failed replication exchanges with this replica (retried after a backoff: 50 ms, doubling up to 10 s).",
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

// Record implements dbserver.Tap. Runs under the store lock: frame the
// record into the journal and wake every link's shipper, nothing else.
// The shipping loop is asynchronous, so the originating request's trace
// ends here — each exchange later runs under its own repl/ship trace.
func (r *Replicator) Record(_ context.Context, ch rfenv.Channel, kind sensor.Kind, rec []byte) {
	f := appendFrame(make([]byte, 0, frameHeaderSize-1+len(rec)), 0, ch, kind, rec)
	r.mu.Lock()
	binary.LittleEndian.PutUint64(f[4:], r.base+uint64(len(r.log))+1)
	r.log = append(r.log, f)
	r.mu.Unlock()
	for _, link := range r.links {
		select {
		case link.grew <- struct{}{}:
		default:
		}
	}
}

// logLen returns the highest assigned sequence number.
func (r *Replicator) logLen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base + uint64(len(r.log))
}

// pending snapshots the unshipped frames after acked for one exchange:
// at most maxShipRecords, and no more than maxShipBytes past the first,
// so an exchange always carries at least one frame and stays under the
// replica's applyBodyCap. ok is false when acked has fallen below the
// truncation point — those records no longer exist and the caller must
// fence the link instead of shipping. Frames are append-only and
// truncation copies the retained tail, so the returned subslice is
// stable.
func (r *Replicator) pending(acked uint64) (top uint64, frames [][]byte, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	top = r.base + uint64(len(r.log))
	if acked < r.base {
		return top, nil, false
	}
	if acked >= top {
		return top, nil, true
	}
	frames = r.log[acked-r.base:]
	n, size := 1, len(frames[0])
	for ; n < min(len(frames), maxShipRecords) && size+len(frames[n]) <= maxShipBytes; n++ {
		size += len(frames[n])
	}
	return top, frames[:n], true
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
		r.log = append([][]byte(nil), r.log[min-r.base:]...)
		r.base = min
	}
}

// ship is one replica's shipping loop: it pushes everything past the
// replica's ack, a pending chunk per exchange, while that makes progress,
// then waits for the journal to grow. An exchange that fails, or makes no
// progress, waits out the followers' backoff instead — followRetry,
// doubling up to legTimeout — so a replica that is down cannot spin the
// primary.
func (r *Replicator) ship(link *replicaLink) {
	defer r.wg.Done()
	var pause time.Duration
	for {
		grew, backoff := link.grew, (<-chan time.Time)(nil)
		switch progressed, idle := r.shipOnce(link); {
		case progressed:
			pause = 0
			continue
		case !idle:
			pause = min(max(2*pause, followRetry), legTimeout)
			grew, backoff = nil, time.After(pause)
		}
		select {
		case <-r.stopc:
			return
		case <-grew: // taken before shipOnce reads the journal: no append is missed
		case <-backoff:
		}
	}
}

// shipOnce pushes one chunk. It reports whether the replica confirmed
// progress, so more may be pending, and whether there was nothing to
// ship. Every exchange that actually carries frames runs under its own
// repl/ship trace (shipping is asynchronous, so there is no client
// request to join); the trace header propagates to the replica, whose
// /v1/repl/apply spans join the same trace ID.
func (r *Replicator) shipOnce(link *replicaLink) (progressed, idle bool) {
	link.mu.Lock()
	acked := link.acked
	link.mu.Unlock()
	top, frames, ok := r.pending(acked)
	link.lag.Set(float64(top - acked))
	if !ok {
		// The replica's confirmed position predates the truncation point:
		// the records it needs are gone. Fence and surface it.
		if link.setFenced(true) {
			link.errs.Inc()
			r.lg.Error(context.Background(), "replica_fenced",
				"replica", link.url, "reason", "backlog_truncated", "acked", acked)
		}
		return false, false
	}
	if len(frames) == 0 {
		return false, true
	}
	sp := r.reg.StartTrace("repl/ship", telemetry.SpanContext{})
	sp.SetAttr("replica", link.url)
	sp.SetAttr("records", fmt.Sprintf("%d", len(frames)))
	ctx := telemetry.ContextWithSpan(context.Background(), sp)
	defer sp.End()
	body := appendExchangeHeader(nil, r.incarnation)
	for _, f := range frames {
		body = append(body, f...)
	}
	req, err := http.NewRequest(http.MethodPost, link.url+"/v1/repl/apply", bytes.NewReader(body))
	if err != nil {
		link.errs.Inc()
		sp.Fail(err.Error())
		return false, false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(telemetry.TraceHeader, sp.Context().Header())
	resp, err := r.httpc.Do(req)
	if err != nil {
		link.errs.Inc()
		sp.Fail(err.Error())
		r.lg.Warn(ctx, "ship_failed", "replica", link.url, "err", err)
		return false, false
	}
	defer resp.Body.Close()
	var st applyStatus
	if err := decodeJSONBody(resp.Body, &st); err != nil {
		link.errs.Inc()
		sp.Fail(err.Error())
		r.lg.Warn(ctx, "ship_bad_status_body", "replica", link.url, "err", err)
		return false, false
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
		return false, false
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
		return false, false
	}
	link.setFenced(false)
	link.mu.Lock()
	progressed = st.Applied > link.acked
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
	return progressed && resp.StatusCode == http.StatusOK, false
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
