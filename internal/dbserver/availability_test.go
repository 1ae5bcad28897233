package dbserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
)

func getAvailability(t *testing.T, url string) AvailabilityJSON {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("availability = %s", resp.Status)
	}
	var av AvailabilityJSON
	if err := json.NewDecoder(resp.Body).Decode(&av); err != nil {
		t.Fatal(err)
	}
	return av
}

func TestAvailabilityEndpoint(t *testing.T) {
	_, ts := bootedServer(t)

	// West of the metro origin the synthetic field is free.
	west := rfenv.MetroCenter.Offset(270, 6000)
	av := getAvailability(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", ts.URL, west.Lat, west.Lon))
	if av.Generation == 0 {
		t.Fatal("bootstrapped server serves generation 0 (no grid built)")
	}
	if len(av.Channels) == 0 {
		t.Fatal("no verdicts in a surveyed cell")
	}
	e := av.Channels[0]
	if e.Channel != 47 || e.Status != "free" {
		t.Errorf("west verdict = ch%d %s, want ch47 free", e.Channel, e.Status)
	}
	if e.Confidence <= 0 || e.Confidence >= 1 {
		t.Errorf("confidence %v outside (0,1)", e.Confidence)
	}

	// The channels filter excludes everything but the named channels.
	av = getAvailability(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v&channels=46", ts.URL, west.Lat, west.Lon))
	if len(av.Channels) != 0 {
		t.Errorf("filter channels=46 returned %d verdicts for a ch47-only store", len(av.Channels))
	}

	// An unsurveyed cell answers 200 with no verdicts, not an error.
	av = getAvailability(t, ts.URL+"/v1/availability?lat=80&lon=120")
	if len(av.Channels) != 0 {
		t.Errorf("unsurveyed cell returned %d verdicts", len(av.Channels))
	}

	// Malformed queries are 400s.
	for _, q := range []string{"", "?lat=91&lon=0", "?lat=x&lon=0", "?lat=0&lon=0&channels=bogus", "?lat=0&lon=0&sensor=x"} {
		resp, err := http.Get(ts.URL + "/v1/availability" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("availability%s = %s, want 400", q, resp.Status)
		}
	}
}

func postRoute(t *testing.T, url string, req RouteRequestJSON) (*http.Response, RouteJSON) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var route RouteJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&route); err != nil {
			t.Fatal(err)
		}
	}
	return resp, route
}

func TestRouteEndpoint(t *testing.T) {
	_, ts := bootedServer(t)

	west := rfenv.MetroCenter.Offset(270, 7000)
	east := rfenv.MetroCenter.Offset(90, 7000)
	req := RouteRequestJSON{
		Points: []RoutePointJSON{
			{Lat: west.Lat, Lon: west.Lon},
			{Lat: east.Lat, Lon: east.Lon},
		},
		StepM: 500,
	}
	resp, route := postRoute(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route = %s", resp.Status)
	}
	if len(route.Segments) < 2 {
		t.Fatalf("14 km route produced %d segments", len(route.Segments))
	}
	if route.TotalM < 10000 || route.ConfidenceDecay != 1 {
		t.Errorf("total_m=%v decay=%v", route.TotalM, route.ConfidenceDecay)
	}
	var free, occupied int
	for _, seg := range route.Segments {
		for _, e := range seg.Channels {
			switch e.Status {
			case "free":
				free++
			case "occupied":
				occupied++
			}
		}
	}
	if free == 0 || occupied == 0 {
		t.Errorf("route across the occupancy split saw free=%d occupied=%d verdicts", free, occupied)
	}

	// A horizon discounts every confidence.
	withHorizon := req
	withHorizon.HorizonS = 1800
	resp2, decayed := postRoute(t, ts.URL, withHorizon)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("route with horizon = %s", resp2.Status)
	}
	if decayed.ConfidenceDecay >= 1 || decayed.ConfidenceDecay <= 0 {
		t.Fatalf("decay = %v, want in (0,1)", decayed.ConfidenceDecay)
	}
	for i, seg := range decayed.Segments {
		for j, e := range seg.Channels {
			base := route.Segments[i].Channels[j].Confidence
			if e.Confidence >= base {
				t.Fatalf("segment %d entry %d confidence %v not discounted from %v", i, j, e.Confidence, base)
			}
		}
	}

	// Bad requests: no points, too many points, invalid waypoint,
	// oversampled route, invalid channel, negative horizon.
	bad := []RouteRequestJSON{
		{},
		{Points: make([]RoutePointJSON, 300)},
		{Points: []RoutePointJSON{{Lat: 91}}},
		{Points: []RoutePointJSON{{Lat: 0, Lon: 0}, {Lat: 40, Lon: 100}}, StepM: 10},
		{Points: req.Points, Channels: []int{3}},
		{Points: req.Points, HorizonS: -1},
	}
	for i, b := range bad {
		resp, _ := postRoute(t, ts.URL, b)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad route %d = %s, want 400", i, resp.Status)
		}
	}

	// The whole body is the request: whitespace may follow the object,
	// nothing else may.
	good, _ := json.Marshal(req)
	for tail, want := range map[string]int{
		"\n":                http.StatusOK,
		" trailing garbage": http.StatusBadRequest,
		`{"points":[]}`:     http.StatusBadRequest,
		"]":                 http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader(append(good[:len(good):len(good)], tail...)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("route body followed by %q = %s, want %d", tail, resp.Status, want)
		}
	}
}

func TestRetrainSchedulesRebuild(t *testing.T) {
	s, ts := bootedServer(t)
	gen0 := s.GeoIndex().Snapshot().Generation

	resp, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %s", resp.Status)
	}
	// The rebuild is asynchronous (off the request path); poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for s.GeoIndex().Snapshot().Generation <= gen0 {
		if time.Now().After(deadline) {
			t.Fatalf("grid generation stuck at %d after retrain", gen0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gridPoll is one GET /v1/grid answer.
type gridPoll struct {
	resp *http.Response
	body []byte
	err  error
}

// pollGrid polls url's /v1/grid, naming inm when it is set.
func pollGrid(url, inm string) gridPoll {
	req, err := http.NewRequest(http.MethodGet, url+"/v1/grid", nil)
	if err != nil {
		return gridPoll{err: err}
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return gridPoll{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return gridPoll{resp, body, err}
}

// TestGridEndpoint: GET /v1/grid serves the serving snapshot, named by a
// hash of its bytes, at once without a validator; with the current one
// it parks until a publish (200, the new grid), the watch horizon (304)
// or shutdown (503), and every answer states the horizon.
func TestGridEndpoint(t *testing.T) {
	s := New(Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		WatchTimeout: 300 * time.Millisecond,
	})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	// Wait out the bootstrap retrain's background builds: from here on
	// only this test publishes.
	s.GeoIndex().Close()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	check := func(p gridPoll, want int) string {
		t.Helper()
		if p.err != nil {
			t.Fatal(p.err)
		}
		if p.resp.StatusCode != want {
			t.Fatalf("grid poll = %s, want %d", p.resp.Status, want)
		}
		if h := p.resp.Header.Get(HorizonHeader); h != "300" {
			t.Errorf("%s answer states a %q ms horizon, want 300", p.resp.Status, h)
		}
		return p.resp.Header.Get("ETag")
	}
	named := func(body []byte) string {
		h := fnv.New64a()
		h.Write(body)
		return fmt.Sprintf(`"%016x"`, h.Sum64())
	}

	first := pollGrid(ts.URL, "")
	etag := check(first, http.StatusOK)
	if etag != named(first.body) {
		t.Errorf("ETag %s does not name the bytes (%s)", etag, named(first.body))
	}
	if snap, err := geoindex.DecodeGrid(first.body, geoindex.DefaultCellDeg); err != nil || snap.Generation != s.GeoIndex().Snapshot().Generation {
		t.Fatalf("served grid: %v", err)
	}
	if got := check(pollGrid(ts.URL, etag), http.StatusNotModified); got != etag {
		t.Errorf("304 at the horizon names %s, want %s", got, etag)
	}

	published := make(chan gridPoll, 1)
	go func() { published <- pollGrid(ts.URL, etag) }()
	s.GeoIndex().Rebuild(context.Background())
	if got := check(<-published, http.StatusOK); got == etag {
		t.Errorf("poll across a publish got the grid it held, %s", got)
	}

	current := check(pollGrid(ts.URL, ""), http.StatusOK)
	shutdown := make(chan gridPoll, 1)
	go func() { shutdown <- pollGrid(ts.URL, current) }()
	s.BeginShutdown()
	check(<-shutdown, http.StatusServiceUnavailable)
}
