package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"

	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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
// it.
func newTestNode(t testing.TB, id string, replicaURLs []string) (*Node, *httptest.Server) {
	t.Helper()
	n, err := OpenNode(NodeConfig{
		ID: id,
		DB: dbserver.Config{
			Constructor: core.ConstructorConfig{Classifier: core.KindNB},
		},
		ReplicaURLs: replicaURLs,
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
// through its public HTTP API (uploads + retrain), drain the shipper,
// and the replica must serve the byte-identical model descriptor and the
// identical reading corpus.
func TestReplicationPair(t *testing.T) {
	_, replicaTS := newTestNode(t, "s0-replica", nil)
	primary, primaryTS := newTestNode(t, "s0", []string{replicaTS.URL})

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
	var st nodeStatus
	if err := json.Unmarshal(mustGetBody(t, replicaTS.URL+"/v1/repl/status", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Applied != 6 { // 5 uploads + 1 retrain
		t.Errorf("replica applied %d frames, want 6", st.Applied)
	}
	if st.Follows != primary.repl.incarnation {
		t.Errorf("replica follows %016x, want the primary's incarnation %016x", st.Follows, primary.repl.incarnation)
	}
	if lag := primary.ReplicationLag(); lag != 0 {
		t.Errorf("lag after drain = %d", lag)
	}
}

// testIncarnation stamps hand-crafted exchanges in apply-contract tests.
const testIncarnation uint64 = 0x1122334455667701

// exchange wraps raw frames in an exchange body under one incarnation.
func exchange(inc uint64, frames []byte) []byte {
	return append(appendExchangeHeader(nil, inc), frames...)
}

// applyTo posts a raw exchange body to a node's apply endpoint and
// decodes the status reply.
func applyTo(t testing.TB, url string, body []byte) (int, applyStatus) {
	t.Helper()
	resp := mustPost(t, url+"/v1/repl/apply", body)
	defer resp.Body.Close()
	var st applyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, st
}

// TestApplyIdempotencyAndGap pins the replica apply contract: re-sent
// frames are skipped without effect, a sequence gap is refused with 409
// plus the replica's high-water mark so the primary can re-ship, and an
// exchange from a different incarnation is refused outright rather than
// misread as a retry.
func TestApplyIdempotencyAndGap(t *testing.T) {
	_, ts := newTestNode(t, "solo", nil)
	rs := synthReadings(10, 47, 5)
	var body []byte
	body = append(body, readingsFrame(1, rs[:5])...)
	body = append(body, readingsFrame(2, rs[5:])...)

	if code, st := applyTo(t, ts.URL, exchange(testIncarnation, body)); code != http.StatusOK || st.Applied != 2 {
		t.Fatalf("first apply: %d, applied %d", code, st.Applied)
	}
	if code, st := applyTo(t, ts.URL, exchange(testIncarnation, body)); code != http.StatusOK || st.Applied != 2 {
		t.Fatalf("replayed apply: %d, applied %d (want idempotent skip)", code, st.Applied)
	}
	if got := len(bytes.Split(bytes.TrimSpace(mustGetBody(t, ts.URL+"/v1/export?channel=47&sensor=1", http.StatusOK)), []byte("\n"))); got != len(rs)+1 {
		t.Errorf("store holds %d CSV lines, want %d readings + header", got, len(rs))
	}

	gap := readingsFrame(9, rs[:1])
	if code, st := applyTo(t, ts.URL, exchange(testIncarnation, gap)); code != http.StatusConflict || st.Applied != 2 || st.Reason != reasonGap {
		t.Fatalf("gap apply: %d, applied %d, reason %q (want 409, mark 2, %q)", code, st.Applied, st.Reason, reasonGap)
	}

	// A different primary incarnation — a restarted process whose journal
	// restarts at 1 — must be refused, never skipped as idempotent.
	next := readingsFrame(1, rs[:1])
	code, st := applyTo(t, ts.URL, exchange(testIncarnation+2, next))
	if code != http.StatusConflict || st.Reason != reasonMismatch {
		t.Fatalf("foreign incarnation: %d, reason %q (want 409 %q)", code, st.Reason, reasonMismatch)
	}
	if st.Applied != 2 || st.Incarnation != testIncarnation {
		t.Fatalf("refusal reported mark %d / incarnation %016x, want 2 / %016x", st.Applied, st.Incarnation, testIncarnation)
	}
	// Malformed exchanges (truncated header, zero incarnation) are plain
	// 400s, answered before any stream-state decision.
	for _, bad := range [][]byte{{1, 2, 3}, exchange(0, nil)} {
		resp := mustPost(t, ts.URL+"/v1/repl/apply", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed exchange %v: %s (want 400)", bad, resp.Status)
		}
	}
}

// TestApplyRefusesRecoveredNode: a node that recovered pre-existing data
// from its WAL has history no replication stream accounts for, so it
// must refuse to adopt one until rebuilt empty.
func TestApplyRefusesRecoveredNode(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Node, *httptest.Server) {
		n, err := OpenNode(NodeConfig{
			ID: "r",
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
	resp := mustPost(t, ts.URL+"/v1/readings", uploadBody(t, synthReadings(20, 47, 1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	ts.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n, ts = open()
	defer func() { ts.Close(); n.Close() }()
	frames := readingsFrame(1, synthReadings(1, 47, 2))
	code, st := applyTo(t, ts.URL, exchange(testIncarnation, frames))
	if code != http.StatusConflict || st.Reason != reasonResync {
		t.Fatalf("apply to recovered node: %d, reason %q (want 409 %q)", code, st.Reason, reasonResync)
	}
	if st.Incarnation != 0 {
		t.Errorf("recovered node adopted incarnation %016x, want none", st.Incarnation)
	}
}

// TestApplyRefusedAfterPromotion: once a node accepts a direct client
// write (gateway failover made it the de-facto primary), replication
// frames from the old primary must be refused — interleaving them with
// the direct writes would silently fork the store history. Every upload
// edge is a direct write: behind a gateway a failed-over write always
// arrives as a frame.
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
			_, ts := newTestNode(t, "r", nil)
			frames := readingsFrame(1, synthReadings(5, 47, 1))
			if code, _ := applyTo(t, ts.URL, exchange(testIncarnation, frames)); code != http.StatusOK {
				t.Fatalf("pre-promotion apply: %d", code)
			}

			resp := write(t, ts.URL)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("direct upload = %s", resp.Status)
			}

			more := readingsFrame(2, synthReadings(5, 47, 3))
			code, st := applyTo(t, ts.URL, exchange(testIncarnation, more))
			if code != http.StatusConflict || st.Reason != reasonPromoted {
				t.Fatalf("post-promotion apply: %d, reason %q (want 409 %q)", code, st.Reason, reasonPromoted)
			}
			if st.Applied != 1 {
				t.Errorf("promoted node reported mark %d, want 1", st.Applied)
			}
		})
	}
}

// TestReplicatorTruncatesAfterDrain: once every replica confirms the
// journal, the in-memory log is dropped — steady-state memory is bounded
// by replica lag, not the primary's lifetime.
func TestReplicatorTruncatesAfterDrain(t *testing.T) {
	_, replicaTS := newTestNode(t, "r", nil)
	primary, primaryTS := newTestNode(t, "p", []string{replicaTS.URL})

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
	// Truncation runs just after the ack that completes the drain; give
	// the shipping goroutine a moment to get there.
	deadline := time.Now().Add(5 * time.Second)
	for {
		primary.repl.mu.Lock()
		held, base := len(primary.repl.log), primary.repl.base
		primary.repl.mu.Unlock()
		if held == 0 {
			if base != 3 {
				t.Fatalf("truncation base = %d, want 3", base)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("log still holds %d records after drain", held)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRestartedPrimaryFencesReplica: a replica following incarnation A
// refuses a restarted primary's incarnation B, and the new primary
// fences the link (resync flagged) instead of silently dropping writes.
func TestRestartedPrimaryFencesReplica(t *testing.T) {
	replicaNode, replicaTS := newTestNode(t, "r", nil)
	frames := readingsFrame(1, synthReadings(5, 47, 1))
	if code, _ := applyTo(t, replicaTS.URL, exchange(testIncarnation, frames)); code != http.StatusOK {
		t.Fatalf("seeding apply: %d", code)
	}

	// "Restarted" primary: a fresh process with a new incarnation shipping
	// to the same replica.
	primary, primaryTS := newTestNode(t, "p", []string{replicaTS.URL})
	resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(50, 47, 2)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}

	link := primary.repl.links[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		link.mu.Lock()
		fenced := link.fenced
		link.mu.Unlock()
		if fenced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never fenced against a replica following another incarnation")
		}
		time.Sleep(time.Millisecond)
	}
	replicaNode.applyMu.Lock()
	applied, follows := replicaNode.applied, replicaNode.follows
	replicaNode.applyMu.Unlock()
	if applied != 1 || follows != testIncarnation {
		t.Errorf("replica moved to applied %d / follows %016x; fencing should have frozen it at 1 / %016x",
			applied, follows, testIncarnation)
	}
}

// TestRecoveredPrimarySeedsEmptyReplica: a primary restarted over an
// existing data dir seeds its journal with the recovered state, so a
// fresh empty replica converges to byte-identical descriptors — the
// documented resync path.
func TestRecoveredPrimarySeedsEmptyReplica(t *testing.T) {
	dir := t.TempDir()
	open := func(replicas []string) (*Node, *httptest.Server) {
		n, err := OpenNode(NodeConfig{
			ID: "p",
			DB: dbserver.Config{
				Constructor: core.ConstructorConfig{Classifier: core.KindNB},
				DataDir:     dir,
			},
			ReplicaURLs: replicas,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		return n, ts
	}
	n, ts := open(nil)
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

	_, replicaTS := newTestNode(t, "r", nil)
	primary, primaryTS := open([]string{replicaTS.URL})
	defer func() { primaryTS.Close(); primary.Close() }()
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

// TestReplicatorCatchesUpAfterOutage: a replica that comes back after
// refusing traffic receives the backlog from its last confirmed mark.
func TestReplicatorCatchesUpAfterOutage(t *testing.T) {
	replicaNode, replicaTS := newTestNode(t, "r", nil)
	gate := &gatedHandler{next: replicaNode.Handler()}
	gatedTS := httptest.NewServer(gate)
	defer gatedTS.Close()
	_ = replicaTS

	primary, primaryTS := newTestNode(t, "p", []string{gatedTS.URL})

	gate.setDown(true)
	resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthReadings(100, 47, 1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	// The replica is down; the primary must keep serving and accrue lag.
	deadline := time.Now().Add(5 * time.Second)
	for primary.ReplicationLag() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if primary.ReplicationLag() == 0 {
		t.Fatal("no replication lag while replica is down")
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

// gatedHandler simulates a replica outage by refusing requests at the
// HTTP layer.
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
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down {
		http.Error(w, "gate closed", http.StatusServiceUnavailable)
		return
	}
	g.next.ServeHTTP(w, r)
}

// TestShipperBacksOffADownReplica: against a replica that refuses
// connections the shipper waits out the followers' backoff between
// exchanges — 50 ms, doubling — however fast the journal grows, rather
// than retrying on every append.
func TestShipperBacksOffADownReplica(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	primary, primaryTS := newTestNode(t, "p", []string{dead.URL})
	loc := cellCenter(rfenv.MetroCenter)
	for i, end := 0, time.Now().Add(400*time.Millisecond); time.Now().Before(end); i++ {
		resp := mustPost(t, primaryTS.URL+"/v1/readings", uploadBody(t, synthAt(5, 47, int64(i), loc)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload = %s", resp.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// 50 + 100 + 200 ms of backoff fit in the 400 ms: four exchanges, or
	// five if the last backoff ran out before the count is read.
	errs := primary.DB.Metrics().Counter("waldo_cluster_replication_errors_total", "", "replica", dead.URL).Value()
	if errs == 0 || errs > 5 {
		t.Errorf("%d failed exchanges with the down replica in 400 ms, want 1 to 5", errs)
	}
}

// TestShipperDrainsABacklogOverTheApplyCap: a backlog larger than the
// replica's body cap drains in exchanges that each fit under it, instead
// of one oversized exchange the replica answers 413 forever.
func TestShipperDrainsABacklogOverTheApplyCap(t *testing.T) {
	replicaNode, _ := newTestNode(t, "r", nil)
	gate := &gatedHandler{next: replicaNode.Handler()}
	gatedTS := httptest.NewServer(gate)
	defer gatedTS.Close()
	primary, _ := newTestNode(t, "p", []string{gatedTS.URL})

	gate.setDown(true)
	rec, _ := core.AppendReadingsRecord(nil, synthReadings(core.MaxBatchReadings, 47, 1))
	records := applyBodyCap/len(rec) + 1
	for i := 0; i < records; i++ {
		primary.repl.Record(context.Background(), 47, sensor.KindRTLSDR, rec)
	}
	gate.setDown(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := replicaNode.DB.StoreSize(47, sensor.KindRTLSDR), records*core.MaxBatchReadings; got != want {
		t.Errorf("replica holds %d readings, the primary shipped %d", got, want)
	}
	if refused := replicaNode.DB.Metrics().Counter("waldo_http_requests_total", "", "route", "/v1/repl/apply", "code", "413").Value(); refused != 0 {
		t.Errorf("replica refused %d exchanges as too large", refused)
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
	open := func(id, dir string, replicas []string) (*Node, *httptest.Server) {
		n, err := OpenNode(NodeConfig{
			ID: id,
			DB: dbserver.Config{
				Constructor: core.ConstructorConfig{Classifier: core.KindNB},
				DataDir:     dir,
			},
			ReplicaURLs: replicas,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, httptest.NewServer(n.Handler())
	}
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	replica, replicaTS := open("r", replicaDir, nil)
	primary, primaryTS := open("p", primaryDir, []string{replicaTS.URL})
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
	primaryTS.Close()
	replicaTS.Close()
	for _, n := range []*Node{primary, replica} {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
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
