package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestReadAllocBudget holds each read class — a model fetch,
// conditional (304) and full, a point's availability over all channels
// and over one, a route inside one owner's cell and across two owners'
// cells — to an allocation budget per request, at the gateway from its
// replicas through g.Handler() and at the owning shard through its
// server's Handler(), the httptest recorder included. Each budget is the
// count measured when it was set; before the place answers were
// appended by hand, the query parsed once, the request counter resolved
// once per status code and span IDs kept binary, the classes allocated
// 48, 49, 37, 41, 54 and 59 at the gateway and 40, 41, 33, 37, 50 and
// 51 at the shard.
func TestReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	oneOwner, twoOwners := tc.placeRoutes(t, free)
	loc := free["s0"]
	model := "/v1/model?channel=47&sensor=1" + hintAt(loc)
	followed(t, tc.gw.shards["s0"])
	etag := serveGateway(t.Context(), tc.gw, http.MethodGet, model, nil).Header().Get("ETag")
	if etag == "" {
		t.Fatal("the model fetch carried no ETag")
	}
	avail := fmt.Sprintf("/v1/availability?lat=%v&lon=%v", loc.Lat, loc.Lon)
	gw, shard := tc.gw.Handler(), tc.nodes["s0"].DB.Handler()
	legs := tc.legs()
	for _, c := range []readClass{
		{name: "model_304", target: model, inm: etag, want: http.StatusNotModified, gateway: 26, shard: 24},
		{name: "model_full", target: model, want: http.StatusOK, gateway: 30, shard: 28},
		{name: "availability_all", target: avail, want: http.StatusOK, gateway: 28, shard: 24},
		{name: "availability_channels", target: avail + "&channels=47", want: http.StatusOK, gateway: 29, shard: 25},
		{name: "route_one_owner", target: "/v1/route", body: oneOwner, want: http.StatusOK, gateway: 32, shard: 28},
		{name: "route_two_owners", target: "/v1/route", body: twoOwners, want: http.StatusOK, gateway: 37, shard: 29},
	} {
		c.check(t, "gateway", gw, c.gateway)
		if n := tc.legs() - legs; n != 0 {
			t.Fatalf("%s took %d legs at the gateway, want 0: every answer is the replicas'", c.name, n)
		}
		c.check(t, "shard", shard, c.shard)
	}
}

// readClass is one read request and the most it may allocate at the
// gateway and at the shard.
type readClass struct {
	name, target, inm string
	body              []byte
	want              int
	gateway, shard    float64
}

// check serves the request through h, first for its status, then under
// testing.AllocsPerRun, and holds the count to budget. The
// request is built once and its body rewound for each run, so the count
// is the handler's and the recorder's.
func (c readClass) check(t *testing.T, at string, h http.Handler, budget float64) {
	t.Helper()
	method := http.MethodGet
	if c.body != nil {
		method = http.MethodPost
	}
	body := bytes.NewReader(c.body)
	req := httptest.NewRequest(method, c.target, body)
	if c.inm != "" {
		req.Header.Set("If-None-Match", c.inm)
	}
	serve := func() {
		body.Reset(c.body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%s at the %s = %d %s, want %d", c.name, at, rec.Code, rec.Body, c.want)
		}
	}
	serve()
	n := testing.AllocsPerRun(200, serve)
	t.Logf("%s at the %s: %.0f allocs per request", c.name, at, n)
	if n > budget {
		t.Errorf("%s at the %s allocates %.0f per request, budget %.0f", c.name, at, n, budget)
	}
}
