package cluster

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// Replication wire format. A replica long-polls its primary's journal
// (GET /v1/repl/journal) — the WAL's mutation order and store mutation
// records (core.ParseRecord) — and each answer is one exchange of
// length-prefixed frames. A frame splices the record's store key in
// after its kind byte:
//
//	exchange := u64 incarnation | frame...
//	frame    := u32 length | u64 seq | rec[0] | u16 channel | u8 sensor | rec[1:]
//
// An exchange carries at most maxShipRecords frames and, past its first,
// at most maxShipBytes of them, below the replica's applyBodyCap.
//
// The incarnation is a random nonzero identifier minted once per primary
// process; the sequence numbers a follower is answered with are
// contiguous from 1. A replica follows the first incarnation it adopts
// while empty: a gap, or any other incarnation — a restarted primary —
// stops it for a rebuild instead of being misread as a retry.
const (
	exchangeHeaderSize = 8                 // incarnation
	frameHeaderSize    = 4 + 8 + 1 + 2 + 1 // length + seq + kind + channel + sensor

	// applyBodyCap bounds one exchange body at the replica.
	applyBodyCap = 64 << 20
	// maxShipRecords and maxShipBytes bound one exchange at the primary.
	maxShipRecords = 256
	maxShipBytes   = applyBodyCap / 4

	// deadFollowerPolls is how many poll lifetimes — the primary's
	// horizon plus legTimeout, which is both a poll's slack and a
	// follower's longest retry pause — may pass with no poll from a
	// follower before the primary forgets it, so a replica that stopped
	// for good does not hold the journal. If it returns, it is refused
	// reasonResync, and reseeds once rebuilt empty.
	deadFollowerPolls = 3
)

// Machine-readable reasons a stream is refused (a 409 body starts with
// one).
const (
	reasonGap      = "sequence_gap"
	reasonMismatch = "incarnation_mismatch"
	reasonResync   = "resync_required"
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

// appendExchangeHeader starts an exchange body: the answering primary's
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

// Replicator is a node's journal, which its followers pull. As the
// dbserver.Tap, called under each store's lock in apply order, it logs
// each record as a frame once any follower has polled, and never blocks
// the upload path (the WAL, not the replica, is what an ack promises). A
// poll's position is its ack; the log is truncated below the lowest, so
// memory is bounded by the slowest live follower's lag.
type Replicator struct {
	incarnation uint64
	db          *dbserver.Server
	keeping     atomic.Bool      // a follower has polled: Record keeps frames
	now         func() time.Time // the clock dead followers are judged by

	mu        sync.Mutex
	base      uint64        // sequences ≤ base are truncated away; log[0] is base+1
	log       [][]byte      // log[i] is the wire frame of sequence base+i+1
	grew      chan struct{} // non-nil while a poll is parked: closed by the next Record
	followers map[string]*followerState
}

// followerState is what the primary knows of one follower. Its stream
// numbers the seed's frames 1..seeded and the log's frame cut+i seeded+i.
type followerState struct {
	seed   [][]byte // the cut's frames; nil once the follower is past them
	seeded uint64   // how many frames the seed held
	cut    uint64   // the log's top at the cut
	after  uint64   // the position it last polled after, in its own numbering
	lag    *telemetry.Gauge

	polling  int       // its polls in flight
	lastPoll time.Time // when its last poll ended (or it was seeded)
}

// pos is the log position f holds: nothing after it may be truncated.
func (f *followerState) pos() uint64 { return f.cut + max(f.after, f.seeded) - f.seeded }

// lagAt is how many records f has yet to apply of a log whose top is top.
func (f *followerState) lagAt(top uint64) uint64 { return top - f.cut + f.seeded - f.after }

// Record implements dbserver.Tap: with no follower it returns at once.
// A poll stamps the frame's sequence number, in its follower's numbering.
func (r *Replicator) Record(_ context.Context, ch rfenv.Channel, kind sensor.Kind, rec []byte) {
	if !r.keeping.Load() {
		return
	}
	f := appendFrame(make([]byte, 0, frameHeaderSize-1+len(rec)), 0, ch, kind, rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.followers) == 0 {
		return // every follower was refused: none holds the log
	}
	r.log = append(r.log, f)
	r.truncate()
	for _, fs := range r.followers {
		fs.lag.Set(float64(fs.lagAt(r.top())))
	}
	if r.grew != nil {
		close(r.grew)
		r.grew = nil
	}
}

// top returns the highest sequence in the log. Call with r.mu held.
func (r *Replicator) top() uint64 { return r.base + uint64(len(r.log)) }

// seed registers id as an empty follower: one consistent cut of the
// stores (dbserver.TapSnapshot) becomes its seed, and the log is kept
// for it from the cut on.
func (r *Replicator) seed(id string) {
	fs := &followerState{lag: r.db.Metrics().Gauge("waldo_cluster_replication_lag_records",
		"Journal records this follower has yet to apply, as of the primary's top.", "replica", id)}
	var seed [][]byte
	r.db.TapSnapshot(func(ch rfenv.Channel, kind sensor.Kind, rec []byte) {
		seed = append(seed, appendFrame(nil, 0, ch, kind, rec))
	}, func() {
		r.mu.Lock()
		r.keeping.Store(true)
		fs.cut, fs.lastPoll = r.top(), r.now()
		r.followers[id] = fs
		r.mu.Unlock()
	})
	r.mu.Lock()
	fs.seed, fs.seeded = seed, uint64(len(seed))
	r.mu.Unlock()
}

// next takes follower id's poll after position after as its ack and
// returns the frames it holds next, to be numbered from after+1: at most
// maxShipRecords, and no more than maxBytes (the journal's is
// maxShipBytes) past the first. With none, wake is closed by the next
// Record. A refusal is a position the log cannot serve, and forgets the
// follower. Logged frames are never written and truncation copies the
// retained tail, so the subslice is stable.
func (r *Replicator) next(id string, after uint64, maxBytes int) (frames [][]byte, wake <-chan struct{}, refusal string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fs := r.followers[id]
	if fs == nil {
		return nil, nil, reasonResync + ": " + id + " never polled this incarnation empty; rebuild it empty"
	}
	top := r.top()
	fs.after = after
	if pos := fs.pos(); pos < r.base || pos > top || after < fs.seeded && fs.seed == nil {
		// Out of the stream for good: it must not hold the log back.
		delete(r.followers, id)
		r.truncate()
		return nil, nil, fmt.Sprintf("%s: position %d is outside the journal's %d..%d", reasonResync, pos, r.base, top)
	}
	r.truncate()
	fs.lag.Set(float64(fs.lagAt(top)))
	if after < fs.seeded {
		frames = fs.seed[after:]
	} else {
		fs.seed = nil
		frames = r.log[fs.pos()-r.base:]
	}
	if len(frames) == 0 {
		if r.grew == nil {
			r.grew = make(chan struct{})
		}
		return nil, r.grew, ""
	}
	n, size := 1, len(frames[0])
	for ; n < min(len(frames), maxShipRecords) && size+len(frames[n]) <= maxBytes; n++ {
		size += len(frames[n])
	}
	return frames[:n], nil, ""
}

// truncate forgets every dead follower — none of its polls in flight,
// the last ended deadFollowerPolls poll lifetimes ago — and drops the log
// records every remaining follower holds past. Call with r.mu held.
func (r *Replicator) truncate() {
	low := r.top()
	dead := r.now().Add(-deadFollowerPolls * (r.db.Horizon() + legTimeout))
	for id, fs := range r.followers {
		if fs.polling == 0 && fs.lastPoll.Before(dead) {
			delete(r.followers, id)
			continue
		}
		low = min(low, fs.pos())
	}
	if low > r.base {
		// Copy the retained tail so the dropped prefix is actually freed
		// (a plain reslice would pin the whole backing array).
		r.log = append([][]byte(nil), r.log[low-r.base:]...)
		r.base = low
	}
}

// handleJournal serves GET /v1/repl/journal?follower=ID&incarnation=I&after=N:
// the frames after N as one exchange, or a parked poll as GET /v1/grid
// (dbserver.Server.LongPoll). An empty follower (I = 0) is seeded and
// answered at once; another incarnation, or a position the journal does
// not hold, is refused 409.
func (r *Replicator) handleJournal(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	id := q.Get("follower")
	inc, err := strconv.ParseUint(q.Get("incarnation"), 10, 64)
	after, err2 := strconv.ParseUint(q.Get("after"), 10, 64)
	if id == "" || err != nil || err2 != nil {
		http.Error(w, "want follower, incarnation and after", http.StatusBadRequest)
		return
	}
	if inc != 0 && inc != r.incarnation {
		http.Error(w, fmt.Sprintf("%s: this journal is incarnation %016x, not %016x", reasonMismatch, r.incarnation, inc), http.StatusConflict)
		return
	}
	if inc == 0 {
		r.seed(id)
		after = 0
	}
	r.mu.Lock()
	fs := r.followers[id]
	if fs != nil {
		fs.polling++
	}
	r.mu.Unlock()
	if fs != nil {
		defer func() {
			r.mu.Lock()
			fs.polling--
			fs.lastPoll = r.now()
			r.mu.Unlock()
		}()
	}
	r.db.LongPoll(w, req, func() <-chan struct{} {
		frames, wake, refusal := r.next(id, after, maxShipBytes)
		switch {
		case refusal != "":
			http.Error(w, refusal, http.StatusConflict)
			return nil
		case wake != nil && inc != 0:
			return wake
		}
		w.Write(r.answer(frames, after)) //nolint:errcheck // follower went away
		return nil
	})
}

// answer is the exchange of frames, numbered from after+1.
func (r *Replicator) answer(frames [][]byte, after uint64) []byte {
	body := appendExchangeHeader(nil, r.incarnation)
	for i, f := range frames {
		body = append(body, f...)
		binary.LittleEndian.PutUint64(body[len(body)-len(f)+4:], after+uint64(i)+1)
	}
	return body
}

// Lag returns the largest number of journal records any live follower
// has yet to apply (0 with none).
func (r *Replicator) Lag() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.truncate()
	var worst uint64
	for _, fs := range r.followers {
		worst = max(worst, fs.lagAt(r.top()))
	}
	return worst
}
