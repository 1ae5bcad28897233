package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// hintAt is the location-hint query naming p's cell.
func hintAt(p geo.Point) string {
	return "&lat=" + strconv.FormatFloat(p.Lat, 'f', -1, 64) + "&lon=" + strconv.FormatFloat(p.Lon, 'f', -1, 64)
}

// answer is one model request's answer as a client sees it: what the
// byte-parity tests compare.
type answer struct {
	status                          int
	etag, version, ctype, horizonMs string
	body                            string
}

func ask(t testing.TB, url, inm string) answer {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h := resp.Header
	return answer{resp.StatusCode, h.Get("ETag"), h.Get("X-Waldo-Model-Version"), h.Get("Content-Type"),
		h.Get(dbserver.HorizonHeader), string(body)}
}

// followed waits until sh holds a copy of store 47/RTL, which its grid
// names once the store is trained: from then on model requests for it
// take no leg.
func followed(t testing.TB, sh *shardState) {
	t.Helper()
	eventually(t, "the replica's first sync", func() bool { return sh.model(modelKey{47, 1}).load() != nil })
}

// TestGatewayModelAnswersMatchOwner: the gateway answers model requests
// through dbserver.Models, the shards' own code, so every answer — 200
// and 304, fetch and watch, each 400 and 404 — is the owner's in status,
// body, ETag, version, Content-Type and horizon, whether the gateway
// forwarded it (a gateway whose grid polls park, so it copies nothing)
// or answered it from the replica (with no leg).
func TestGatewayModelAnswersMatchOwner(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	owner := tc.nodeTS["s0"].URL
	at := hintAt(free["s0"])
	// An untrained store next to the trained one.
	if resp := mustPost(t, tc.gwTS.URL+"/v1/readings", uploadBody(t, fieldAt(20, 46, free["s0"], -100))); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	etag := ask(t, owner+"/v1/model?channel=47&sensor=1", "").etag
	asks := []struct{ name, target, inm string }{
		{"fetch", "/v1/model?channel=47&sensor=1", ""},
		{"revalidation", "/v1/model?channel=47&sensor=1", etag},
		{"revalidation, one of two", "/v1/model?channel=47&sensor=1", `"other", ` + etag},
		{"another shard's validator", "/v1/model?channel=47&sensor=1", `"47-1-v1-0000000000000000"`},
		{"first watch", "/v1/model/watch?channel=47&sensor=1", ""},
		{"watch behind", "/v1/model/watch?channel=47&sensor=1&version=0", `"stale"`},
		{"bad channel", "/v1/model?channel=x&sensor=1", ""},
		{"channel off band", "/v1/model?channel=99&sensor=1", ""},
		{"bad sensor", "/v1/model?channel=47&sensor=x", ""},
		{"unknown sensor", "/v1/model?channel=47&sensor=9", ""},
		{"watch, bad channel", "/v1/model/watch?channel=x&sensor=1", ""},
		{"watch, unknown sensor", "/v1/model/watch?channel=47&sensor=9", ""},
		{"watch, bad version", "/v1/model/watch?channel=47&sensor=1&version=-1", ""},
		{"no store", "/v1/model?channel=21&sensor=1", ""},
		{"watch, no store", "/v1/model/watch?channel=21&sensor=1", ""},
		{"untrained", "/v1/model?channel=46&sensor=1", ""},
	}
	direct := map[string]answer{}
	for _, a := range asks {
		direct[a.name] = ask(t, owner+a.target, a.inm)
		if d := direct[a.name]; d.status/100 == 2 && d.horizonMs == "" && a.target[:len(modelWatchPath)] == modelWatchPath {
			t.Fatalf("%s: the owner states no horizon: %+v", a.name, d)
		}
	}

	// Forwarded: each asked of a gateway that copies nothing.
	parked := httptest.NewServer(gridParked(tc.nodes["s0"].Handler()))
	// A cleanup, so it runs after the gateways' own: closed first, it
	// would wait on their parked grid polls.
	t.Cleanup(parked.Close)
	for _, a := range asks {
		gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{parked.URL}})
		ts := httptest.NewServer(gw.Handler())
		if got := ask(t, ts.URL+a.target+at, a.inm); got != direct[a.name] {
			t.Errorf("forwarded %s: gateway %+v, owner %+v", a.name, got, direct[a.name])
		}
		ts.Close()
	}

	// From the replica: once followed, no answer takes a leg but the
	// 404s, which no replica holds.
	ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, "")
	followed(t, tc.gw.shards["s0"])
	for _, a := range asks {
		legs := tc.legs()
		got := ask(t, tc.gwTS.URL+a.target+at, a.inm)
		if got != direct[a.name] {
			t.Errorf("replica %s: gateway %+v, owner %+v", a.name, got, direct[a.name])
		}
		if n := tc.legs() - legs; got.status != http.StatusNotFound && n != 0 {
			t.Errorf("replica %s took %d legs", a.name, n)
		}
	}
}

// delayFollowers holds back a shard's answers to the gateway's
// revalidations — /v1/model requests that carry no trace, unlike every
// client leg — by d after the handler returns, so a replica lags its
// owner by d.
func delayFollowers(d time.Duration) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != modelPath || r.Header.Get(telemetry.TraceHeader) != "" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			time.Sleep(d)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes()) //nolint:errcheck
		})
	}
}

// TestGatewayWatchNeverDowngrades: a client watch parks on the replica a
// fetch reads, so once it delivers v(n+1) a conditional fetch naming
// v(n+1) is a 304 — never the replica's v(n), which the client would
// install over v(n+1). The replica lags its owner by 100 ms here: a
// watch forwarded to the shard would outrun it.
func TestGatewayWatchNeverDowngrades(t *testing.T) {
	tc := wrappedCluster(t, []string{"s0", "s1", "s2"}, delayFollowers(100*time.Millisecond))
	free, _ := seedGeoCluster(t, tc, 47)
	model := tc.gwTS.URL + "/v1/model?channel=47&sensor=1" + hintAt(free["s0"])
	v1 := ask(t, model, "")
	followed(t, tc.gw.shards["s0"])
	for i := 0; i < 3; i++ {
		watched := make(chan answer, 1)
		go func() {
			watched <- ask(t, tc.gwTS.URL+"/v1/model/watch?channel=47&sensor=1"+hintAt(free["s0"]), v1.etag)
		}()
		time.Sleep(20 * time.Millisecond) // parked
		if resp := mustPost(t, tc.nodeTS["s0"].URL+"/v1/retrain?channel=47&sensor=1", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("retrain at the shard = %s", resp.Status)
		}
		next := <-watched
		if next.status != http.StatusOK || next.etag == v1.etag {
			t.Fatalf("watch = %d %s, want the retrained model", next.status, next.etag)
		}
		if got := ask(t, model, next.etag); got.status != http.StatusNotModified {
			t.Fatalf("fetch naming the watched v%s = %d v%s: a downgrade", next.version, got.status, got.version)
		}
		v1 = next
	}
}

// TestRetrainThenFetchSeesNewModel: a retrain forwarded through the
// gateway, keyed or broadcast, answers only once the replica holds the
// version it made, so no fetch after it reads an older model — with the
// replica lagging its owner by 100 ms, and the first retrain landing
// while a revalidation, answered before it, is in flight.
func TestRetrainThenFetchSeesNewModel(t *testing.T) {
	tc := wrappedCluster(t, []string{"s0", "s1", "s2"}, delayFollowers(100*time.Millisecond))
	free, _ := seedGeoCluster(t, tc, 47)
	at := hintAt(free["s0"])
	followed(t, tc.gw.shards["s0"])
	for _, target := range []string{"/v1/retrain?channel=47&sensor=1" + at, "/v1/retrain?channel=47&sensor=1"} {
		resp := mustPost(t, tc.gwTS.URL+target, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %s", target, resp.Status)
		}
		want := strconv.Itoa(tc.nodes["s0"].DB.ModelVersion(47, 1))
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
			if got := ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, ""); got.version != want {
				t.Fatalf("fetch after %s = v%s, want v%s", target, got.version, want)
			}
		}
	}
}

// scriptedStore is one shard's 47/RTL descriptor with the answer its
// server gives it, and that server's grid, which names the store.
func scriptedStore(t testing.TB) (data []byte, etag string, grid *geoindex.Snapshot) {
	t.Helper()
	n, ts := newTestNode(t, "s0", "")
	if err := n.DB.Bootstrap(fieldAt(400, 47, cellCenter(rfenv.MetroCenter), -100)); err != nil {
		t.Fatal(err)
	}
	a := ask(t, ts.URL+"/v1/model?channel=47&sensor=1", "")
	return []byte(a.body), a.etag, n.DB.GeoIndex().Snapshot()
}

// modelReply is a shard's 200 to a model request: data under etag at
// v1.
func modelReply(data []byte, etag string) *http.Response {
	h := http.Header{}
	h.Set("ETag", etag)
	h.Set("X-Waldo-Model-Version", "1")
	return &http.Response{StatusCode: http.StatusOK, Header: h, Body: io.NopCloser(bytes.NewReader(data))}
}

const scriptedFetch = "/v1/model?channel=47&sensor=1"

// TestModelStalenessBound: under a silent partition a copy is served
// until the grid poll that would revalidate it runs out of time — the
// horizon the grid poll stated plus legTimeout — and the store's
// requests forward from then on. The shard answers the first grid poll
// and its revalidation, then goes silent: it notes the next grid poll's
// deadline and, once released, fails it as that deadline expiring
// would; it refuses every later connection.
func TestModelStalenessBound(t *testing.T) {
	data, etag, grid := scriptedStore(t)
	release, budget := make(chan time.Duration, 1), make(chan struct{})
	shard := &scriptedShard{grids: true, script: func(poll int, req *http.Request) (*http.Response, error) {
		switch poll {
		case 1:
			return gridReply(grid, `"g1"`), nil
		case 2:
			return modelReply(data, etag), nil
		case 3:
			d, _ := req.Context().Deadline()
			release <- time.Until(d)
			select {
			case <-budget:
			case <-req.Context().Done():
			}
			return nil, os.ErrDeadlineExceeded
		}
		return nil, syscall.ECONNREFUSED
	}}
	gw := gatewayOver(t, shard, ShardSpec{ID: "s0", URLs: []string{"http://s0.partitioned"}})
	sh := gw.shards["s0"]
	allowed := <-release
	if rec := serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil); rec.Code != http.StatusOK || sh.requests.Value() != 0 {
		t.Errorf("model while the grid poll is parked = %d %s with %d legs, want the copy's 200", rec.Code, rec.Body, sh.requests.Value())
	}
	close(budget)
	eventually(t, "the partitioned store's requests forward, and fail", func() bool {
		return serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil).Code == http.StatusBadGateway
	})
	if want := 250*time.Millisecond + legTimeout; allowed > want || allowed < want-time.Second {
		t.Errorf("the parked grid poll was allowed %v, want the 250 ms horizon plus the %v leg budget", allowed, legTimeout)
	}
}

// TestModelRefusedDropsReplica: a revalidation the follower refuses —
// the descriptor's ETag names other bytes, it does not decode, or the
// shard answers 404 — drops that store's copy, and only it, until the
// next grid: the store's requests forward meanwhile, and a forwarded 200
// does not bring the copy back. No refusal is a failover.
func TestModelRefusedDropsReplica(t *testing.T) {
	data, etag, grid := scriptedStore(t)
	garbage := []byte("not a model")
	for name, bad := range map[string]*http.Response{
		"ETag of other bytes": modelReply(data, `"47-1-v1-0000000000000000"`),
		"undecodable":         modelReply(garbage, dbserver.ModelETag(47, 1, 1, garbage)),
		"404":                 {StatusCode: http.StatusNotFound, Header: http.Header{}, Body: http.NoBody},
	} {
		t.Run(name, func(t *testing.T) {
			nextGrid := make(chan struct{})
			shard := &scriptedShard{grids: true, script: func(poll int, req *http.Request) (*http.Response, error) {
				inm := req.Header.Get("If-None-Match")
				switch {
				case req.URL.Path == gridPath && inm == "":
					return gridReply(grid, `"g1"`), nil
				case req.URL.Path == gridPath && inm == `"g1"`:
					select {
					case <-nextGrid:
						return gridReply(grid, `"g2"`), nil
					case <-req.Context().Done():
						return nil, req.Context().Err()
					}
				case req.URL.Path == gridPath: // in sync: parked until the gateway closes
					<-req.Context().Done()
					return nil, req.Context().Err()
				case poll == 2: // the first grid's revalidation
					return bad, nil
				}
				return modelReply(data, etag), nil // a forwarded fetch, or the next grid's revalidation
			}}
			gw := gatewayOver(t, shard, ShardSpec{ID: "s0", URLs: []string{"http://s0.scripted"}})
			sh := gw.shards["s0"]
			eventually(t, "the refused revalidation", func() bool { return sh.modelSyncs.refused.Value() == 1 })
			if sh.model(modelKey{47, 1}).load() != nil || sh.grid.load() == nil {
				t.Fatal("a refused revalidation kept the store's copy, or dropped the grid")
			}
			if rec := serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil); rec.Code != http.StatusOK || sh.requests.Value() != 1 {
				t.Errorf("model after a refused revalidation = %d with %d legs, want a forwarded 200", rec.Code, sh.requests.Value())
			}
			if sh.model(modelKey{47, 1}).load() != nil {
				t.Error("a forwarded 200 brought the copy back before the next grid")
			}
			close(nextGrid)
			eventually(t, "the next grid's revalidation", func() bool { return sh.modelSyncs.ok.Value() == 1 })
			if rec := serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil); rec.Code != http.StatusOK || sh.requests.Value() != 1 {
				t.Errorf("model after the next grid = %d with %d legs in all, want the copy's 200", rec.Code, sh.requests.Value())
			}
			if gw.Failovers() != 0 {
				t.Errorf("a refused revalidation failed the endpoint over %d times", gw.Failovers())
			}
		})
	}
}

// TestModelFollowerFailsOverToReplica: when a shard's primary dies, its
// follower fails over to the replica endpoint as a leg does and copies
// the stores again from it; a retrain there reaches the copy.
func TestModelFollowerFailsOverToReplica(t *testing.T) {
	primary, primaryTS := newTestNode(t, "s0", "")
	replica, replicaTS := newFollower(t, "s0r", primaryTS.URL)
	gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{primaryTS.URL, replicaTS.URL}})
	loc := cellCenter(rfenv.MetroCenter)
	if rec := serveGateway(context.Background(), gw, http.MethodPost, "/v1/readings", uploadBody(t, fieldAt(400, 47, loc, -100))); rec.Code != http.StatusNoContent {
		t.Fatalf("upload = %d %s", rec.Code, rec.Body)
	}
	if rec := serveGateway(context.Background(), gw, http.MethodPost, "/v1/retrain?channel=47&sensor=1", nil); rec.Code != http.StatusOK {
		t.Fatalf("retrain = %d %s", rec.Code, rec.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	sh := gw.shards["s0"]
	serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil)
	followed(t, sh)

	kill(primaryTS)
	eventually(t, "a sync from the replica", func() bool { return sh.modelSyncs.ok.Value() == 2 })
	if got := sh.currentURL(); got != replicaTS.URL || gw.Failovers() != 1 {
		t.Errorf("active endpoint %s after %d failovers, want the replica %s after 1", got, gw.Failovers(), replicaTS.URL)
	}
	if rec := serveGateway(context.Background(), gw, http.MethodPost, "/v1/retrain?channel=47&sensor=1", nil); rec.Code != http.StatusOK {
		t.Fatalf("retrain at the replica = %d %s", rec.Code, rec.Body)
	}
	legs := sh.requests.Value()
	rec := serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil)
	if want := strconv.Itoa(replica.DB.ModelVersion(47, 1)); rec.Header().Get("X-Waldo-Model-Version") != want || sh.requests.Value() != legs {
		t.Errorf("model after the retrain = v%s with %d legs, want the replica's v%s from the replica",
			rec.Header().Get("X-Waldo-Model-Version"), sh.requests.Value()-legs, want)
	}
}

// TestModelFollowersEndAtClose: watches parked on a replica answer 503
// at BeginShutdown, fetches are still answered from it through the
// drain, and Close leaves no follower and no copy: a fetch after it
// brings none back.
func TestModelFollowersEndAtClose(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	for id, loc := range free {
		ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+hintAt(loc), "")
		followed(t, tc.gw.shards[id])
	}
	at := hintAt(free["s0"])
	current := ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, "")
	parked := make(chan answer, 2)
	for range 2 {
		go func() { parked <- ask(t, tc.gwTS.URL+"/v1/model/watch?channel=47&sensor=1"+at, current.etag) }()
	}
	active := tc.gw.metrics.Gauge("waldo_dbserver_watch_active", "")
	eventually(t, "two watches parked on the replica", func() bool { return active.Value() == 2 })
	tc.gw.BeginShutdown()
	for range 2 {
		if a := <-parked; a.status != http.StatusServiceUnavailable {
			t.Errorf("a parked watch got %d at BeginShutdown, want 503", a.status)
		}
	}
	legs := tc.legs()
	if a := ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, current.etag); a.status != http.StatusNotModified || tc.legs() != legs {
		t.Errorf("revalidation in the drain = %d with %d legs, want the replica's 304", a.status, tc.legs()-legs)
	}
	following := func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("cluster.startFollower.func1("))
	}
	if !following() {
		t.Fatal("no follower goroutine before Close; the stack scan is broken")
	}
	tc.gw.Close()
	eventually(t, "no follower goroutine after Close", func() bool { return !following() })
	ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, "")
	if following() || tc.gw.shards["s0"].model(modelKey{47, 1}).load() != nil {
		t.Error("a follower or a copy outlived Close")
	}
}

// TestGatewayCopiesFromTheGrid: a fresh gateway copies every trained
// store of every shard — each store its copy of the shard's grid names —
// with no client request, so every model fetch is answered with no leg,
// in the owner's bytes; and it parks no watch on any shard: one parked
// grid poll per shard is all it holds there.
func TestGatewayCopiesFromTheGrid(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	seedGeoCluster(t, tc, 21)
	var specs []ShardSpec
	for _, id := range tc.gw.Ring().Nodes() {
		specs = append(specs, ShardSpec{ID: id, URLs: []string{tc.nodeTS[id].URL}})
	}
	gw, err := NewGateway(GatewayConfig{Shards: specs, Ring: RingConfig{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	stores := []rfenv.Channel{21, 47}
	for id := range free {
		for _, ch := range stores {
			eventually(t, fmt.Sprintf("%s's %d/RTL copied", id, ch), func() bool { return gw.shards[id].model(modelKey{ch, 1}).load() != nil })
		}
	}
	for id, loc := range free {
		sh := gw.shards[id]
		for _, ch := range stores {
			target := fmt.Sprintf("/v1/model?channel=%d&sensor=1", ch)
			direct := ask(t, tc.nodeTS[id].URL+target, "")
			rec := serveGateway(context.Background(), gw, http.MethodGet, target+hintAt(loc), nil)
			if rec.Code != http.StatusOK || rec.Body.String() != direct.body || sh.requests.Value() != 0 {
				t.Errorf("%s's %d/RTL = %d (owner's bytes: %v) with %d legs, want the owner's 200 with none",
					id, ch, rec.Code, rec.Body.String() == direct.body, sh.requests.Value())
			}
		}
		if n := tc.nodes[id].DB.Metrics().Gauge("waldo_dbserver_watch_active", "").Value(); n != 0 {
			t.Errorf("%s has %v watches parked, want 0", id, n)
		}
	}
}

// TestModelCopyNamesBytesNotVersions: versions count retrains per
// server, so after a failover a promoted replica can reach the version
// the gateway's copy holds from another history. The primary retrains to
// v2, its stream held back from the replica, and dies; the replica, at
// v1, takes a write and retrains to its own v2. The gateway serves the
// replica's v2 bytes, and a client naming the primary's v2 gets them.
func TestModelCopyNamesBytesNotVersions(t *testing.T) {
	primary, _ := newTestNode(t, "s0", "")
	held := &gatedHandler{next: primary.Handler()}
	primaryTS := httptest.NewServer(held)
	t.Cleanup(primaryTS.Close)
	replica, replicaTS := newFollower(t, "s0r", primaryTS.URL)
	gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{primaryTS.URL, replicaTS.URL}})
	sh := gw.shards["s0"]
	loc := cellCenter(rfenv.MetroCenter)
	post := func(target string, body []byte, want int) {
		t.Helper()
		if rec := serveGateway(context.Background(), gw, http.MethodPost, target, body); rec.Code != want {
			t.Fatalf("%s = %d %s", target, rec.Code, rec.Body)
		}
	}
	post("/v1/readings", uploadBody(t, fieldAt(400, 47, loc, -100)), http.StatusNoContent)
	post("/v1/retrain?channel=47&sensor=1", nil, http.StatusOK)
	// The store's first model: no grid had named it, so the retrain had
	// no copy to wait for, and the copy lands with the grid it republishes.
	followed(t, sh)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	held.setDown(true)
	post("/v1/readings", uploadBody(t, fieldAt(50, 47, loc.Offset(90, 1000), -70)), http.StatusNoContent)
	post("/v1/retrain?channel=47&sensor=1", nil, http.StatusOK)
	primaryV2 := sh.model(modelKey{47, 1}).load()
	if primaryV2 == nil || primaryV2.val.Version != 2 || replica.DB.ModelVersion(47, 1) != 1 {
		t.Fatalf("copy %+v with the replica at v%d, want the primary's v2 and the replica at v1", primaryV2, replica.DB.ModelVersion(47, 1))
	}

	kill(primaryTS)
	eventually(t, "the shard failed over to the replica", func() bool { return sh.currentURL() == replicaTS.URL })
	post("/v1/readings", uploadBody(t, fieldAt(50, 47, loc.Offset(270, 1000), -100)), http.StatusNoContent)
	post("/v1/retrain?channel=47&sensor=1", nil, http.StatusOK)
	direct := ask(t, replicaTS.URL+scriptedFetch, "")
	if direct.version != "2" || direct.etag == primaryV2.etag {
		t.Fatalf("the replica serves v%s under %s, want its own v2, not the primary's %s", direct.version, direct.etag, primaryV2.etag)
	}
	legs := sh.requests.Value()
	for _, inm := range []string{"", primaryV2.etag} {
		req := httptest.NewRequest(http.MethodGet, scriptedFetch, nil)
		req.Header.Set("If-None-Match", inm)
		rec := httptest.NewRecorder()
		gw.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") != direct.etag || rec.Body.String() != direct.body {
			t.Errorf("fetch naming %q = %d %s, want the replica's v2 %s", inm, rec.Code, rec.Header().Get("ETag"), direct.etag)
		}
	}
	if n := sh.requests.Value() - legs; n != 0 {
		t.Errorf("the fetches took %d legs, want them answered from the copy", n)
	}
}

// TestGatewayFullModelAnswerHasContentLength: a full model answer from
// the gateway — a fetch and a watch's wake, from its copy or forwarded
// from a shard whose grid polls park, so it copies nothing — states its
// length, so the gateway's serving loop sends it in one piece instead of
// chunked: here an SVM model's, past the loop's 2 KB hold-back.
func TestGatewayFullModelAnswerHasContentLength(t *testing.T) {
	n, err := OpenNode(NodeConfig{ID: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.DB.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		wrap func(http.Handler) http.Handler
		legs uint64
	}{
		{"from the copy", func(h http.Handler) http.Handler { return h }, 0},
		{"forwarded", gridParked, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(c.wrap(n.Handler()))
			t.Cleanup(ts.Close) // after the gateway's: its grid polls may park here
			gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{ts.URL}})
			if c.legs == 0 {
				followed(t, gw.shards["s0"])
			}
			checkModelHeads(t, gw, c.legs)
		})
	}
}

// checkModelHeads fetches the metro model through gw on its own serving
// loop, then wakes a watch on it, and requires each answer's head to
// state its length; the two take legs legs.
func checkModelHeads(t *testing.T, gw *Gateway, legs uint64) {
	t.Helper()
	loc := rfenv.MetroCenter
	srv, err := adminhttp.Start("127.0.0.1:0", gw.Handler(), gw.BeginShutdown)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := gw.shards["s0"].requests.Value()
	for _, target := range []string{"/v1/model?channel=47&sensor=1", "/v1/model/watch?channel=47&sensor=1&version=0"} {
		resp, err := http.Get(srv.URL + target + hintAt(loc))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %s, %v", target, resp.Status, err)
		}
		if len(body) <= 2<<10 {
			t.Fatalf("%s: a %d-byte descriptor would get a Content-Length anyway", target, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte descriptor",
				target, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
	if n := gw.shards["s0"].requests.Value() - before; n != legs {
		t.Errorf("%d legs, want %d", n, legs)
	}
}
