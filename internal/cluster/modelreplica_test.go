package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
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

// followed waits until sh follows store 47/RTL and its owner has stated
// the horizon: from then on model requests for it take no leg.
func followed(t testing.TB, sh *shardState) {
	t.Helper()
	eventually(t, "the replica's first sync", func() bool { _, ok := sh.Horizon(47, 1); return ok })
}

// TestGatewayModelAnswersMatchOwner: the gateway answers model requests
// through dbserver.Models, the shards' own code, so every answer — 200
// and 304, fetch and watch, each 400 and 404 — is the owner's in status,
// body, ETag, version, Content-Type and horizon, whether the gateway
// forwarded it (a gateway that follows nothing yet) or answered it from
// the replica (with no leg).
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

	// Forwarded: each asked of a gateway that follows nothing yet.
	for _, a := range asks {
		gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{owner}})
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
// followers — /v1/model/watch requests that carry no trace, unlike
// every client leg — by d after the handler returns, so a replica lags
// its owner by d.
func delayFollowers(d time.Duration) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != modelWatchPath || r.Header.Get(telemetry.TraceHeader) != "" {
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
// version it made, so a fetch right after it is the new model — with
// the replica lagging its owner by 100 ms.
func TestRetrainThenFetchSeesNewModel(t *testing.T) {
	tc := wrappedCluster(t, []string{"s0", "s1", "s2"}, delayFollowers(100*time.Millisecond))
	free, _ := seedGeoCluster(t, tc, 47)
	at := hintAt(free["s0"])
	ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, "")
	followed(t, tc.gw.shards["s0"])
	for _, target := range []string{"/v1/retrain?channel=47&sensor=1" + at, "/v1/retrain?channel=47&sensor=1"} {
		resp := mustPost(t, tc.gwTS.URL+target, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %s", target, resp.Status)
		}
		want := strconv.Itoa(tc.nodes["s0"].DB.ModelVersion(47, 1))
		if got := ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, ""); got.version != want {
			t.Errorf("fetch after %s = v%s, want v%s", target, got.version, want)
		}
	}
}

// scriptedModel is one shard's 47/RTL descriptor with the answer its
// server gives it.
func scriptedModel(t testing.TB) (data []byte, etag string) {
	t.Helper()
	n, ts := newTestNode(t, "s0", nil)
	if err := n.DB.Bootstrap(fieldAt(400, 47, cellCenter(rfenv.MetroCenter, DefaultCellDeg), -100)); err != nil {
		t.Fatal(err)
	}
	a := ask(t, ts.URL+"/v1/model?channel=47&sensor=1", "")
	return []byte(a.body), a.etag
}

// modelReply is a shard's 200 to a model request or watch: data under
// etag at v1, with a 250 ms horizon.
func modelReply(data []byte, etag string) *http.Response {
	h := http.Header{}
	h.Set("ETag", etag)
	h.Set("X-Waldo-Model-Version", "1")
	h.Set(dbserver.HorizonHeader, "250")
	return &http.Response{StatusCode: http.StatusOK, Header: h, Body: io.NopCloser(bytes.NewReader(data))}
}

const scriptedFetch = "/v1/model?channel=47&sensor=1"

// TestModelStalenessBound: under a silent partition a replica is served
// until its follower's parked watch runs out of time — the owner's
// horizon plus legTimeout — and the store's requests forward from then
// on. The shard answers the fetch that seeds the replica and the
// follower's first sync, then goes silent: it notes the parked watch's
// deadline and, once released, fails it as that deadline expiring
// would; it refuses every later connection.
func TestModelStalenessBound(t *testing.T) {
	data, etag := scriptedModel(t)
	release, budget := make(chan time.Duration, 1), make(chan struct{})
	shard := &scriptedShard{script: func(poll int, req *http.Request) (*http.Response, error) {
		switch poll {
		case 1, 2:
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
	if rec := serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil); rec.Code != http.StatusOK {
		t.Fatalf("model = %d %s", rec.Code, rec.Body)
	}
	allowed := <-release
	if rec := serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil); rec.Code != http.StatusOK {
		t.Errorf("model while the watch is parked = %d %s, want the replica's 200", rec.Code, rec.Body)
	}
	close(budget)
	eventually(t, "the partitioned store's requests forward, and fail", func() bool {
		return serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil).Code == http.StatusBadGateway
	})
	if want := 250*time.Millisecond + legTimeout; allowed > want || allowed < want-time.Second {
		t.Errorf("the parked watch was allowed %v, want the 250 ms horizon plus the %v leg budget", allowed, legTimeout)
	}
}

// TestModelRefusedDropsReplica: a descriptor the follower refuses — its
// ETag names other bytes, or it does not decode — is not kept, and
// neither is the one before it: the follower retires, and the store's
// next request is forwarded, its 200 starting a new follower. No
// refusal is a failover.
func TestModelRefusedDropsReplica(t *testing.T) {
	data, etag := scriptedModel(t)
	garbage := []byte("not a model")
	for name, bad := range map[string]*http.Response{
		"ETag of other bytes": modelReply(data, `"47-1-v1-0000000000000000"`),
		"undecodable":         modelReply(garbage, dbserver.ModelETag(47, 1, 1, garbage)),
		"404":                 {StatusCode: http.StatusNotFound, Header: http.Header{}, Body: http.NoBody},
	} {
		t.Run(name, func(t *testing.T) {
			shard := &scriptedShard{script: func(poll int, req *http.Request) (*http.Response, error) {
				switch {
				case poll == 2: // the first follower's first sync
					return bad, nil
				case req.Header.Get("If-None-Match") == "": // a fetch, or a follower's first sync
					return modelReply(data, etag), nil
				}
				<-req.Context().Done() // in sync: parked until the gateway closes
				return nil, req.Context().Err()
			}}
			gw := gatewayOver(t, shard, ShardSpec{ID: "s0", URLs: []string{"http://s0.scripted"}})
			sh := gw.shards["s0"]
			serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil)
			eventually(t, "the follower retired", func() bool { return sh.modelSyncs.refused.Value() == 1 && sh.model(modelKey{47, 1}) == nil })
			legs := sh.requests.Value()
			if rec := serveGateway(context.Background(), gw, http.MethodGet, scriptedFetch, nil); rec.Code != http.StatusOK || sh.requests.Value() == legs {
				t.Errorf("model after a refused sync = %d with %d legs, want a forwarded 200", rec.Code, sh.requests.Value()-legs)
			}
			eventually(t, "a new follower in sync", func() bool { return sh.modelSyncs.ok.Value() == 1 })
			if gw.Failovers() != 0 {
				t.Errorf("a refused sync failed the endpoint over %d times", gw.Failovers())
			}
		})
	}
}

// TestModelFollowerFailsOverToReplica: when a shard's primary dies, its
// followed stores' followers fail over to the replica endpoint as a leg
// does and resync from it; a retrain there reaches the replica.
func TestModelFollowerFailsOverToReplica(t *testing.T) {
	replica, replicaTS := newTestNode(t, "s0r", nil)
	primary, primaryTS := newTestNode(t, "s0", []string{replicaTS.URL})
	gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{primaryTS.URL, replicaTS.URL}})
	loc := cellCenter(rfenv.MetroCenter, DefaultCellDeg)
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
// drain, and Close leaves no follower: a fetch after it starts none.
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
	tc.gw.Close()
	following := func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("cluster.(*Gateway).follow("))
	}
	eventually(t, "no follower goroutine after Close", func() bool { return !following() })
	ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, "")
	if following() || tc.gw.shards["s0"].model(modelKey{47, 1}) != nil {
		t.Error("a model fetch after Close started a follower")
	}
}

// TestModelFollowerNeedsAModelFetch: a gateway that forwards no model
// 200 follows no store, whatever else it serves; the first one does.
func TestModelFollowerNeedsAModelFetch(t *testing.T) {
	var follows atomic.Int64
	tc := wrappedCluster(t, []string{"s0", "s1", "s2"}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == modelWatchPath && r.Header.Get(telemetry.TraceHeader) == "" {
				follows.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	free, _ := seedGeoCluster(t, tc, 47)
	at := hintAt(free["s0"])
	for _, target := range []string{"/v1/export?channel=47&sensor=1" + at, "/v1/stats", "/v1/availability?lat=33.7&lon=-84.4",
		"/v1/model?channel=21&sensor=1" + at, "/v1/model?channel=47&sensor=9" + at} {
		if status, body := fetch(t, tc.gwTS.URL+target, nil); status/100 == 5 {
			t.Fatalf("%s = %d %s", target, status, body)
		}
	}
	if n := follows.Load(); n != 0 {
		t.Errorf("shards saw %d follower watches from a gateway that forwarded no model", n)
	}
	ask(t, tc.gwTS.URL+"/v1/model?channel=47&sensor=1"+at, "")
	eventually(t, "the first model 200 starts a follower", func() bool { return follows.Load() > 0 })
}
