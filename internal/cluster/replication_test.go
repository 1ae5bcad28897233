package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// synthReadings generates a classifiable corpus: strong signal east of
// the metro center, noise west, like the dbserver tests.
func synthReadings(n int, ch rfenv.Channel, seed int64) []dataset.Reading {
	rng := rand.New(rand.NewSource(seed))
	origin := rfenv.MetroCenter
	out := make([]dataset.Reading, 0, n)
	for i := 0; i < n; i++ {
		loc := origin.Offset(rng.Float64()*360, rng.Float64()*10000)
		rss := -100.0
		if loc.Lon > origin.Lon {
			rss = -70
		}
		out = append(out, dataset.Reading{
			Seq: i, Loc: loc, Channel: ch, Sensor: sensor.KindRTLSDR,
			Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
		})
	}
	return out
}

func uploadBody(t testing.TB, rs []dataset.Reading) []byte {
	t.Helper()
	up := dbserver.UploadJSON{CISpanDB: 0.4}
	for _, r := range rs {
		up.Readings = append(up.Readings, dbserver.FromReading(r))
	}
	body, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func mustPost(t testing.TB, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustGetBody(t testing.TB, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (%s)", url, resp.StatusCode, wantStatus, data)
	}
	return data
}

// newTestNode opens a Node around a fresh in-memory dbserver and serves
// it; a follow URL makes it a replica of that primary.
func newTestNode(t testing.TB, id, follow string) (*Node, *httptest.Server) {
	t.Helper()
	n, err := OpenNode(NodeConfig{
		ID: id,
		DB: dbserver.Config{
			Constructor: core.ConstructorConfig{Classifier: core.KindNB},
		},
		Follow: follow,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		ts.Close()
		n.Close()
	})
	return n, ts
}

// newFollower opens a replica of the primary at primaryURL and waits for
// the answer to its first poll, so it follows the primary's journal from
// what the primary holds now on.
func newFollower(t testing.TB, id, primaryURL string) (*Node, *httptest.Server) {
	t.Helper()
	n, ts := newTestNode(t, id, primaryURL)
	awaitFollowing(t, n)
	return n, ts
}

// awaitFollowing waits until n has adopted its primary's incarnation.
func awaitFollowing(t testing.TB, n *Node) {
	t.Helper()
	eventually(t, n.cfg.ID+" adopted its primary's incarnation", func() bool {
		n.applyMu.Lock()
		defer n.applyMu.Unlock()
		return n.follows != 0
	})
}

// readingsFrame is the wire frame, at seq, of the append record of rs,
// readings of one store.
func readingsFrame(seq uint64, rs []dataset.Reading) []byte {
	rec, _ := core.AppendReadingsRecord(nil, rs)
	return appendFrame(nil, seq, rs[0].Channel, rs[0].Sensor, rec)
}

// TestFrameRoundTrip pins the replication wire format: append and
// retrain frames survive encode→decode bit-exactly, including when
// concatenated in one exchange body, and a frame splices the store key
// in after the record's kind byte.
func TestFrameRoundTrip(t *testing.T) {
	appendRec, _ := core.AppendReadingsRecord(nil, synthReadings(7, 47, 3))
	frames := []frame{
		{seq: 1, ch: 47, kind: sensor.KindRTLSDR, rec: appendRec},
		{seq: 2, ch: 47, kind: sensor.KindRTLSDR, rec: core.AppendRetrainRecord(nil, 9, 607)},
	}
	var body []byte
	for _, f := range frames {
		body = appendFrame(body, f.seq, f.ch, f.kind, f.rec)
	}
	retrain := []byte{20, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, core.RecordRetrain, 47, 0, byte(sensor.KindRTLSDR), 9, 0, 0, 0, 0x5f, 2, 0, 0}
	if !bytes.HasSuffix(body, retrain) {
		t.Errorf("retrain frame is %x, want %x", body[len(body)-len(retrain):], retrain)
	}
	for i := range frames {
		got, rest, err := decodeFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		body = rest
		if !reflect.DeepEqual(got, frames[i]) {
			t.Errorf("frame %d: decoded %+v, want %+v", i, got, frames[i])
		}
	}
	if len(body) != 0 {
		t.Errorf("%d bytes left after decoding all frames", len(body))
	}
	if _, _, err := decodeFrame([]byte{1, 2, 3}); err == nil {
		t.Error("truncated frame decoded without error")
	}
}

// FuzzDecodeReplicationFrame: an exchange body decodes without a panic,
// and whatever decodes — the header, then each frame up to the first
// error — re-encodes to exactly the bytes it consumed. The committed
// corpus under testdata/fuzz holds an exchange captured from a real
// primary (an append and a retrain frame), a truncated frame, length
// 0xFFFFFFFF, an unknown kind and a zero incarnation.
func FuzzDecodeReplicationFrame(f *testing.F) {
	f.Add(exchange(testIncarnation, appendFrame(nil, 1, 47, sensor.KindRTLSDR, core.AppendRetrainRecord(nil, 2, 600))))
	f.Fuzz(func(t *testing.T, body []byte) {
		inc, rest, err := decodeExchangeHeader(body)
		if err != nil {
			return
		}
		if got := appendExchangeHeader(nil, inc); !bytes.Equal(got, body[:len(body)-len(rest)]) {
			t.Fatalf("header %x re-encodes as %x", body[:len(body)-len(rest)], got)
		}
		for len(rest) > 0 {
			fr, tail, err := decodeFrame(rest)
			if err != nil {
				return
			}
			if got, consumed := appendFrame(nil, fr.seq, fr.ch, fr.kind, fr.rec), rest[:len(rest)-len(tail)]; !bytes.Equal(got, consumed) {
				t.Fatalf("frame %x re-encodes as %x", consumed, got)
			}
			rest = tail
		}
	})
}

// TestReplicationPair is the core byte-identity claim: drive a primary
// through its public HTTP API (uploads + retrain), drain the journal,
// and the replica must serve the byte-identical model descriptor and the
// identical reading corpus.
func TestReplicationPair(t *testing.T) {
	primary, primaryTS := newTestNode(t, "s0", "")
	_, replicaTS := newFollower(t, "s0-replica", primaryTS.URL)

	for i := 0; i < 4; i++ {
		resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(200, 47, int64(i))))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d = %s", i, resp.Status)
		}
	}
	resp := mustPost(t, primaryTS.URL+"/v1/retrain?channel=47&sensor=1", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %s", resp.Status)
	}
	// One more batch after the retrain: the replica must land it after
	// the version bump, exactly like the primary did.
	resp = mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(50, 47, 99)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-retrain upload = %s", resp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/v1/model?channel=47&sensor=1", "/v1/export?channel=47&sensor=1"} {
		p := mustGetBody(t, primaryTS.URL+path, http.StatusOK)
		r := mustGetBody(t, replicaTS.URL+path, http.StatusOK)
		if !bytes.Equal(p, r) {
			t.Errorf("%s: primary (%d bytes) and replica (%d bytes) differ", path, len(p), len(r))
		}
	}
	st := statusOf(t, replicaTS.URL)
	if st.Applied != 6 { // 5 uploads + 1 retrain
		t.Errorf("replica applied %d frames, want 6", st.Applied)
	}
	if st.Follows != primary.repl.incarnation || st.Follow != primaryTS.URL {
		t.Errorf("replica follows %016x at %q, want the primary's incarnation %016x at %s", st.Follows, st.Follow, primary.repl.incarnation, primaryTS.URL)
	}
	if lag := int(primary.repl.Lag()); lag != 0 {
		t.Errorf("lag after drain = %d", lag)
	}
}

// statusOf reads a node's /v1/repl/status.
func statusOf(t testing.TB, url string) nodeStatus {
	t.Helper()
	var st nodeStatus
	if err := json.Unmarshal(mustGetBody(t, url+"/v1/repl/status", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// testIncarnation stamps hand-crafted exchanges in apply-contract tests.
const testIncarnation uint64 = 0x1122334455667701

// exchange wraps raw frames in an exchange body under one incarnation.
func exchange(inc uint64, frames []byte) []byte {
	return append(appendExchangeHeader(nil, inc), frames...)
}

// refusedFor returns the reason err refuses the stream for ("" when it
// is no refusal).
func refusedFor(err error) string {
	var ref refusal
	if errors.As(err, &ref) {
		return ref.reason
	}
	return ""
}

// mark returns n's applied mark and the incarnation it follows.
func mark(n *Node) (uint64, uint64) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	return n.applied, n.follows
}

// TestApplyIdempotencyAndGap pins the follower's apply step: re-sent
// frames are skipped without effect, a sequence gap is refused with the
// mark left where it was, and an answer from a different incarnation is
// refused outright rather than misread as a retry.
func TestApplyIdempotencyAndGap(t *testing.T) {
	n, ts := newTestNode(t, "solo", "")
	ctx := context.Background()
	rs := synthReadings(10, 47, 5)
	var body []byte
	body = append(body, readingsFrame(1, rs[:5])...)
	body = append(body, readingsFrame(2, rs[5:])...)

	if err := n.apply(ctx, exchange(testIncarnation, body)); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	if err := n.apply(ctx, exchange(testIncarnation, body)); err != nil {
		t.Fatalf("replayed apply: %v (want idempotent skip)", err)
	}
	if applied, follows := mark(n); applied != 2 || follows != testIncarnation {
		t.Fatalf("mark %d / %016x after a replay, want 2 / %016x", applied, follows, testIncarnation)
	}
	if got := len(bytes.Split(bytes.TrimSpace(mustGetBody(t, ts.URL+"/v1/export?channel=47&sensor=1", http.StatusOK)), []byte("\n"))); got != len(rs)+1 {
		t.Errorf("store holds %d CSV lines, want %d readings + header", got, len(rs))
	}

	gap := readingsFrame(9, rs[:1])
	if err := n.apply(ctx, exchange(testIncarnation, gap)); refusedFor(err) != reasonGap {
		t.Fatalf("gap apply: %v, want a %q refusal", err, reasonGap)
	}

	// A different primary incarnation — a restarted process whose journal
	// restarts at 1 — must be refused, never skipped as idempotent.
	next := readingsFrame(1, rs[:1])
	if err := n.apply(ctx, exchange(testIncarnation+2, next)); refusedFor(err) != reasonMismatch {
		t.Fatalf("foreign incarnation: %v, want a %q refusal", err, reasonMismatch)
	}
	if applied, follows := mark(n); applied != 2 || follows != testIncarnation {
		t.Fatalf("refusals moved the mark to %d / %016x, want 2 / %016x", applied, follows, testIncarnation)
	}
	// Malformed exchanges (truncated header, zero incarnation) are plain
	// errors, retried after a pause, decided before any stream state.
	for _, bad := range [][]byte{{1, 2, 3}, exchange(0, nil)} {
		if err := n.apply(ctx, bad); err == nil || refusedFor(err) != "" {
			t.Fatalf("malformed exchange %v: %v, want a plain error", bad, err)
		}
	}
}

// TestApplyRefusesRecoveredNode: a node that recovered pre-existing data
// from its WAL has history no replication stream accounts for, so it
// refuses to adopt one until rebuilt empty — and, told to follow, it
// never polls: it reports resync needed instead.
func TestApplyRefusesRecoveredNode(t *testing.T) {
	primary, primaryTS := newTestNode(t, "p", "")
	dir := t.TempDir()
	open := func(follow string) (*Node, *httptest.Server) {
		n, err := OpenNode(NodeConfig{
			ID: "r",
			DB: dbserver.Config{
				Constructor: core.ConstructorConfig{Classifier: core.KindNB},
				DataDir:     dir,
			},
			Follow: follow,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		return n, ts
	}
	n, ts := open("")
	resp := mustPost(t, ts.URL+"/v1/readings", uploadBody(t, synthReadings(20, 47, 1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	ts.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n, ts = open(primaryTS.URL)
	defer func() { ts.Close(); n.Close() }()
	if n.following() || n.DB.Metrics().Gauge("waldo_cluster_replication_resync_needed", "").Value() != 1 {
		t.Errorf("recovered node: following %v, resync needed %v; want no follower and 1",
			n.following(), n.DB.Metrics().Gauge("waldo_cluster_replication_resync_needed", "").Value())
	}
	primary.repl.mu.Lock()
	polled := len(primary.repl.followers)
	primary.repl.mu.Unlock()
	if polled != 0 {
		t.Errorf("the recovered node polled its primary")
	}
	frames := readingsFrame(1, synthReadings(1, 47, 2))
	if err := n.apply(context.Background(), exchange(testIncarnation, frames)); refusedFor(err) != reasonResync {
		t.Fatalf("apply to recovered node: %v, want a %q refusal", err, reasonResync)
	}
	if _, follows := mark(n); follows != 0 {
		t.Errorf("recovered node adopted incarnation %016x, want none", follows)
	}
}

// TestApplyRefusedAfterPromotion: once a replica accepts a direct client
// write (gateway failover made it the de-facto primary), the old
// primary's stream must never reach it — interleaving it with the direct
// writes would silently fork the store history. The write stops the
// follower before it lands, so nothing the primary takes afterwards is
// applied. Every upload edge is a direct write: behind a gateway a
// failed-over write always arrives on one.
func TestApplyRefusedAfterPromotion(t *testing.T) {
	direct := synthReadings(20, 47, 2)
	writes := map[string]func(t *testing.T, url string) *http.Response{
		"/v1/readings": func(t *testing.T, url string) *http.Response {
			return mustPost(t, url+"/v1/readings", uploadBody(t, direct))
		},
		"/v1/upload/batch": func(t *testing.T, url string) *http.Response {
			return postFrame(t, url, frameOf(t, direct), 0.4)
		},
	}
	for route, write := range writes {
		t.Run(route, func(t *testing.T) {
			primary, primaryTS := newTestNode(t, "p", "")
			replica, replicaTS := newFollower(t, "r", primaryTS.URL)
			upload := func(seed int64) {
				t.Helper()
				resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(200, 47, seed)))
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Fatalf("primary upload = %s", resp.Status)
				}
			}
			upload(1)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := primary.Drain(ctx); err != nil {
				t.Fatal(err)
			}

			resp := write(t, replicaTS.URL)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("direct upload = %s", resp.Status)
			}
			if st := statusOf(t, replicaTS.URL); st.Follow != "" || st.Applied != 1 {
				t.Errorf("promoted replica's status follows %q at mark %d, want nothing at 1", st.Follow, st.Applied)
			}
			export := mustGetBody(t, replicaTS.URL+"/v1/export?channel=47&sensor=1", http.StatusOK)

			upload(3)
			resp = mustPost(t, primaryTS.URL+"/v1/retrain?channel=47&sensor=1", nil)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("primary retrain = %s", resp.Status)
			}
			short, cancelShort := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancelShort()
			if err := primary.Drain(short); err == nil {
				t.Error("the primary drained into a promoted replica")
			}
			if primary.DB.ModelVersion(47, 1) != 1 || replica.DB.ModelVersion(47, 1) != 0 {
				t.Errorf("model versions: primary v%d, replica v%d; want the primary's to move to 1 and the replica's to stay 0",
					primary.DB.ModelVersion(47, 1), replica.DB.ModelVersion(47, 1))
			}
			if got := mustGetBody(t, replicaTS.URL+"/v1/export?channel=47&sensor=1", http.StatusOK); !bytes.Equal(got, export) {
				t.Error("the old primary's writes reached the promoted replica")
			}
		})
	}
}

// TestReplicatorTruncatesAfterDrain: once every follower has polled past
// the journal's top, the in-memory log is dropped — steady-state memory
// is bounded by follower lag, not the primary's lifetime.
func TestReplicatorTruncatesAfterDrain(t *testing.T) {
	primary, primaryTS := newTestNode(t, "p", "")
	newFollower(t, "r", primaryTS.URL)

	for i := 0; i < 3; i++ {
		resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(100, 47, int64(i))))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d = %s", i, resp.Status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	awaitTruncation(t, primary, 3)
}

// awaitTruncation waits until primary's log holds nothing, truncated at
// base.
func awaitTruncation(t *testing.T, primary *Node, base uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		primary.repl.mu.Lock()
		held, at := len(primary.repl.log), primary.repl.base
		primary.repl.mu.Unlock()
		if held == 0 {
			if at != base {
				t.Fatalf("truncation base = %d, want %d", at, base)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("log still holds %d records after drain", held)
		}
		time.Sleep(time.Millisecond)
	}
}

// swappable serves whichever handler it holds, so one URL can stand for
// a process that is restarted or replaced.
type swappable struct{ h atomic.Pointer[http.Handler] }

func (s *swappable) set(h http.Handler) { s.h.Store(&h) }

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*s.h.Load()).ServeHTTP(w, r) }

// TestRestartedPrimaryFencesReplica: a replica following incarnation A
// is refused by its restarted primary, now incarnation B, and stops —
// resync flagged — instead of silently dropping writes or adopting B.
func TestRestartedPrimaryFencesReplica(t *testing.T) {
	first, _ := newTestNode(t, "p", "")
	at := &swappable{}
	at.set(first.Handler())
	primaryTS := httptest.NewServer(at)
	t.Cleanup(primaryTS.Close)
	replicaNode, _ := newFollower(t, "r", primaryTS.URL)
	resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(5, 47, 1)))
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := first.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restarted" primary: a fresh process with a new incarnation behind
	// the same URL. Closing the first answers the replica's parked poll.
	restarted, _ := newTestNode(t, "p", "")
	at.set(restarted.Handler())
	first.Close()
	resp = mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(50, 47, 2)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}

	resync := replicaNode.DB.Metrics().Gauge("waldo_cluster_replication_resync_needed", "")
	eventually(t, "the replica fenced against another incarnation", func() bool {
		return resync.Value() == 1 && !replicaNode.following()
	})
	if applied, follows := mark(replicaNode); applied != 1 || follows != first.repl.incarnation {
		t.Errorf("replica moved to applied %d / follows %016x; fencing should have frozen it at 1 / %016x",
			applied, follows, first.repl.incarnation)
	}
}

// TestRecoveredPrimarySeedsEmptyReplica: a primary restarted over an
// existing data dir seeds an empty follower with its recovered state, so
// the replica converges to byte-identical descriptors.
func TestRecoveredPrimarySeedsEmptyReplica(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Node, *httptest.Server) {
		n, err := OpenNode(NodeConfig{
			ID: "p",
			DB: dbserver.Config{
				Constructor: core.ConstructorConfig{Classifier: core.KindNB},
				DataDir:     dir,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		return n, ts
	}
	n, ts := open()
	resp := mustPost(t, ts.URL+"/v1/readings", uploadBody(t, synthReadings(200, 47, 1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	resp = mustPost(t, ts.URL+"/v1/retrain?channel=47&sensor=1", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %s", resp.Status)
	}
	ts.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	primary, primaryTS := open()
	t.Cleanup(func() { primaryTS.Close(); primary.Close() })
	_, replicaTS := newFollower(t, "r", primaryTS.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/model?channel=47&sensor=1", "/v1/export?channel=47&sensor=1"} {
		p := mustGetBody(t, primaryTS.URL+path, http.StatusOK)
		r := mustGetBody(t, replicaTS.URL+path, http.StatusOK)
		if !bytes.Equal(p, r) {
			t.Errorf("%s: recovered primary (%d bytes) and seeded replica (%d bytes) differ", path, len(p), len(r))
		}
	}
}

// TestEmptiedReplicaReseedsWithoutPrimaryRestart: a replica rebuilt
// empty behind the same URL is seeded again by the running primary, even
// after the primary truncated the records it first followed, and
// converges to byte-identical descriptors — no primary restart.
func TestEmptiedReplicaReseedsWithoutPrimaryRestart(t *testing.T) {
	primary, primaryTS := newTestNode(t, "p", "")
	first, _ := newFollower(t, "r", primaryTS.URL)
	at := &swappable{}
	at.set(first.Handler())
	replicaTS := httptest.NewServer(at)
	defer replicaTS.Close()
	post := func(target string, body []byte, want int) {
		t.Helper()
		resp := mustPost(t, primaryTS.URL+target, body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %s", target, resp.Status)
		}
	}
	drain := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := primary.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		post("/v1/readings", uploadBody(t, synthReadings(100, 47, int64(i))), http.StatusNoContent)
	}
	post("/v1/retrain?channel=47&sensor=1", nil, http.StatusOK)
	drain()
	awaitTruncation(t, primary, 4)

	first.Close()
	emptied, _ := newFollower(t, "r", primaryTS.URL)
	at.set(emptied.Handler())
	post("/v1/readings", uploadBody(t, synthReadings(100, 47, 3)), http.StatusNoContent)
	post("/v1/retrain?channel=47&sensor=1", nil, http.StatusOK)
	drain()
	for _, path := range []string{"/v1/model?channel=47&sensor=1", "/v1/export?channel=47&sensor=1"} {
		p := mustGetBody(t, primaryTS.URL+path, http.StatusOK)
		r := mustGetBody(t, replicaTS.URL+path, http.StatusOK)
		if !bytes.Equal(p, r) {
			t.Errorf("%s: primary (%d bytes) and reseeded replica (%d bytes) differ", path, len(p), len(r))
		}
	}
}

// TestJournalPollParks: a follower's poll with nothing to answer parks
// like GET /v1/grid — 304 at the horizon the answer states, 503 at
// BeginShutdown — while an empty follower's first poll is answered at
// once with the incarnation to adopt, and another incarnation, or a
// follower the journal never seeded, is refused 409.
func TestJournalPollParks(t *testing.T) {
	n, err := OpenNode(NodeConfig{ID: "p", DB: dbserver.Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		WatchTimeout: 100 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	defer func() { ts.Close(); n.Close() }()
	poll := func(id string, inc, after uint64) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/repl/journal?follower=%s&incarnation=%d&after=%d", ts.URL, id, inc, after))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	inc := n.repl.incarnation
	if resp, body := poll("r", 0, 0); resp.StatusCode != http.StatusOK || !bytes.Equal(body, exchange(inc, nil)) {
		t.Fatalf("empty follower's first poll = %d %x, want 200 with the bare incarnation %016x", resp.StatusCode, body, inc)
	}
	start := time.Now()
	resp, _ := poll("r", inc, 0)
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get(dbserver.HorizonHeader) != "100" || time.Since(start) < 100*time.Millisecond {
		t.Errorf("parked poll = %d after %v, horizon %q; want 304 at the stated 100 ms",
			resp.StatusCode, time.Since(start), resp.Header.Get(dbserver.HorizonHeader))
	}
	for _, refused := range []struct {
		id     string
		inc    uint64
		reason string
	}{{"r", inc + 2, reasonMismatch}, {"stranger", inc, reasonResync}} {
		if resp, body := poll(refused.id, refused.inc, 0); resp.StatusCode != http.StatusConflict || !bytes.HasPrefix(body, []byte(refused.reason)) {
			t.Errorf("poll by %s of %016x = %d %q, want 409 %s", refused.id, refused.inc, resp.StatusCode, body, refused.reason)
		}
	}

	n.DB.BeginShutdown()
	n2, err := OpenNode(NodeConfig{ID: "q", DB: dbserver.Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}}})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(n2.Handler())
	defer func() { ts2.Close(); n2.Close() }()
	get := func(inc uint64) int {
		resp, err := http.Get(fmt.Sprintf("%s/v1/repl/journal?follower=r&incarnation=%d&after=0", ts2.URL, inc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(0); code != http.StatusOK {
		t.Fatalf("first poll = %d", code)
	}
	parked := make(chan int)
	go func() { parked <- get(n2.repl.incarnation) }()
	eventually(t, "the poll parked", func() bool {
		n2.repl.mu.Lock()
		defer n2.repl.mu.Unlock()
		return n2.repl.grew != nil
	})
	n2.DB.BeginShutdown()
	if code := <-parked; code != http.StatusServiceUnavailable {
		t.Errorf("parked poll at BeginShutdown = %d, want 503", code)
	}
}

// TestReplicatorForgetsADeadFollower: a follower that stops polling for
// good holds the journal only until deadFollowerPolls poll lifetimes
// pass. Then the log stays bounded as records arrive, Drain does not wait
// on it, and if it comes back it is refused and must reseed.
func TestReplicatorForgetsADeadFollower(t *testing.T) {
	n, err := OpenNode(NodeConfig{ID: "p", DB: dbserver.Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		WatchTimeout: 100 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var skew atomic.Int64 // how far the primary's clock runs ahead
	n.repl.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	ts := httptest.NewServer(n.Handler())
	defer func() { ts.Close(); n.Close() }()
	poll := func(inc, after uint64) (int, []byte) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/repl/journal?follower=r&incarnation=%d&after=%d", ts.URL, inc, after))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	upload := func(seed int64) {
		t.Helper()
		resp := mustPost(t, ts.URL+"/v1/readings", uploadBody(t, synthReadings(10, 47, seed)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload = %s", resp.Status)
		}
	}
	inc := n.repl.incarnation
	if code, _ := poll(0, 0); code != http.StatusOK {
		t.Fatalf("empty follower's first poll = %d", code)
	}
	if code, _ := poll(inc, 0); code != http.StatusNotModified {
		t.Fatalf("parked poll = %d, want 304 at the horizon", code)
	}

	// Within the bound the stopped follower still holds the log.
	upload(0)
	if lag := n.repl.Lag(); lag != 1 {
		t.Fatalf("lag of a recently polled follower = %d, want 1", lag)
	}

	skew.Store(int64(deadFollowerPolls*(100*time.Millisecond+legTimeout) + time.Second))
	const records = 20
	for i := int64(1); i <= records; i++ {
		upload(i)
	}
	n.repl.mu.Lock()
	held, followers := len(n.repl.log), len(n.repl.followers)
	n.repl.mu.Unlock()
	if held != 0 || followers != 0 {
		t.Errorf("after %d records the journal holds %d records for %d followers, want 0 for 0", records, held, followers)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Errorf("drain waits on a dead follower: %v", err)
	}
	if code, body := poll(inc, 0); code != http.StatusConflict || !bytes.HasPrefix(body, []byte(reasonResync)) {
		t.Errorf("returning follower's poll = %d %.60q, want 409 %s", code, string(body), reasonResync)
	}
}

// TestReplicatorCatchesUpAfterOutage: a replica that comes back after
// its primary's journal was out of reach is answered the backlog from
// its last position.
func TestReplicatorCatchesUpAfterOutage(t *testing.T) {
	primary, primaryTS := newTestNode(t, "p", "")
	gate := &gatedHandler{next: primary.Handler()}
	gatedTS := httptest.NewServer(gate)
	t.Cleanup(gatedTS.Close)
	_, replicaTS := newFollower(t, "r", gatedTS.URL)

	gate.setDown(true)
	resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(100, 47, 1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	// The journal is out of reach; the primary must keep serving and
	// accrue lag.
	deadline := time.Now().Add(5 * time.Second)
	for int(primary.repl.Lag()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if int(primary.repl.Lag()) == 0 {
		t.Fatal("no replication lag while the replica is cut off")
	}
	gate.setDown(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	p := mustGetBody(t, primaryTS.URL+"/v1/export?channel=47&sensor=1", http.StatusOK)
	r := mustGetBody(t, replicaTS.URL+"/v1/export?channel=47&sensor=1", http.StatusOK)
	if !bytes.Equal(p, r) {
		t.Error("replica did not catch up to primary after outage")
	}
}

// gatedHandler simulates a replication outage: while down, the primary's
// journal answers 503 — also to a poll that parked before the outage —
// and every other route passes.
type gatedHandler struct {
	mu   sync.Mutex
	down bool
	next http.Handler
}

func (g *gatedHandler) setDown(v bool) {
	g.mu.Lock()
	g.down = v
	g.mu.Unlock()
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/repl/journal" {
		g.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	g.next.ServeHTTP(rec, r)
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down {
		http.Error(w, "gate closed", http.StatusServiceUnavailable)
		return
	}
	maps.Copy(w.Header(), rec.Header())
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes()) //nolint:errcheck // follower went away
}

// TestShipperBacksOffADownReplica: against a primary that refuses
// connections the follower waits out the followers' backoff between
// polls — 50 ms, doubling — rather than retrying at once.
func TestShipperBacksOffADownReplica(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	replica, _ := newTestNode(t, "r", dead.URL)
	time.Sleep(400 * time.Millisecond)
	// 50 + 100 + 200 ms of backoff fit in the 400 ms: four polls, or
	// five if the last backoff ran out before the count is read.
	errs := replica.DB.Metrics().Counter("waldo_cluster_replication_errors_total", "").Value()
	if errs == 0 || errs > 5 {
		t.Errorf("%d failed polls of the down primary in 400 ms, want 1 to 5", errs)
	}
}

// TestShipperDrainsABacklogOverTheApplyCap: a backlog larger than the
// replica's body cap drains in answers that each fit under it, instead
// of one oversized answer the replica refuses forever. The drain runs at
// a 1 MiB cap through the journal's own bound (next, at a quarter of the
// cap as maxShipBytes is) and the replica's own apply; the shipped
// 64 MiB cap is held to the same arithmetic: the largest record's frame
// plus maxShipBytes fits under it.
func TestShipperDrainsABacklogOverTheApplyCap(t *testing.T) {
	biggest, _ := core.AppendReadingsRecord(nil, make([]dataset.Reading, core.MaxBatchReadings))
	if worst := exchangeHeaderSize + len(appendFrame(nil, 0, 47, sensor.KindRTLSDR, biggest)) + maxShipBytes; worst > applyBodyCap {
		t.Fatalf("an answer may hold %d bytes, over the replica's %d-byte cap", worst, applyBodyCap)
	}

	const bodyCap = 1 << 20
	primary, _ := newTestNode(t, "p", "")
	replica, _ := newTestNode(t, "r", "")
	primary.repl.seed("r")
	const perRecord = 2000
	rec, _ := core.AppendReadingsRecord(nil, synthReadings(perRecord, 47, 1))
	records := bodyCap/len(rec) + 1
	for range records {
		primary.repl.Record(context.Background(), 47, sensor.KindRTLSDR, rec)
	}
	answers := 0
	for {
		after, _ := mark(replica)
		frames, wake, refusal := primary.repl.next("r", after, bodyCap/4)
		if refusal != "" {
			t.Fatalf("poll after %d refused: %s", after, refusal)
		}
		if wake != nil {
			break // the backlog is drained: the poll would park
		}
		body := primary.repl.answer(frames, after)
		if len(body) > bodyCap {
			t.Fatalf("an answer held %d bytes, over the %d-byte cap", len(body), bodyCap)
		}
		if err := replica.apply(context.Background(), body); err != nil {
			t.Fatal(err)
		}
		answers++
	}
	if answers < 2 {
		t.Errorf("the backlog drained in %d answer(s): it never exceeded one cap", answers)
	}
	if got, want := replica.DB.StoreSize(47, sensor.KindRTLSDR), records*perRecord; got != want {
		t.Errorf("replica holds %d readings, the primary logged %d", got, want)
	}
}

// journalRecords returns the record payloads of a store directory's WAL
// segments, in journal order (segment names sort in epoch order).
func journalRecords(t *testing.T, storeDir string) [][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "wal.*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", storeDir, err)
	}
	var recs [][]byte
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 8 { // u32 length | u32 CRC | payload
			n := int(binary.LittleEndian.Uint32(data))
			if len(data) < 8+n {
				break
			}
			recs = append(recs, data[8:8+n])
			data = data[8+n:]
		}
		if len(data) != 0 {
			t.Fatalf("%s: %d bytes after the last whole record", seg, len(data))
		}
	}
	return recs
}

// TestPrimaryAndReplicaJournalTheSameRecords: a durable replica that
// applied a durable primary's stream journals the same records, byte for
// byte and in the same order — the WAL payload and the frame's record
// are one encoding.
func TestPrimaryAndReplicaJournalTheSameRecords(t *testing.T) {
	open := func(id, dir, follow string) (*Node, *httptest.Server) {
		n, err := OpenNode(NodeConfig{
			ID: id,
			DB: dbserver.Config{
				Constructor: core.ConstructorConfig{Classifier: core.KindNB},
				DataDir:     dir,
			},
			Follow: follow,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, httptest.NewServer(n.Handler())
	}
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	primary, primaryTS := open("p", primaryDir, "")
	replica, replicaTS := open("r", replicaDir, primaryTS.URL)
	// Its first poll lands before the primary's first write, so the
	// replica follows the journal from its first record.
	awaitFollowing(t, replica)
	for i := 0; i < 4; i++ {
		resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(200, 47, int64(i))))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d = %s", i, resp.Status)
		}
	}
	resp := mustPost(t, primaryTS.URL+"/v1/retrain?channel=47&sensor=1", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %s", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The replica first: closing it ends its parked poll of the primary.
	replicaTS.Close()
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	primaryTS.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	p := journalRecords(t, filepath.Join(primaryDir, "ch47-s1"))
	r := journalRecords(t, filepath.Join(replicaDir, "ch47-s1"))
	if len(p) != 5 || p[4][0] != core.RecordRetrain {
		t.Fatalf("primary journaled %d records, want 4 uploads then a retrain", len(p))
	}
	if !reflect.DeepEqual(p, r) {
		t.Errorf("primary and replica journals differ: %d and %d records", len(p), len(r))
	}
}
