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
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
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

// splitServer is bootedServer over the same split stretched to 20 km
// around the metro center, so the west holds cells wholly beyond the
// 6 km protection radius of the occupied east.
func splitServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	rs := synthReadings(600, 47, 1)
	for i := range rs {
		c := rfenv.MetroCenter
		rs[i].Loc = c.Offset(c.BearingDeg(rs[i].Loc), 2*c.DistanceM(rs[i].Loc))
	}
	s := newServer(t, Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
	if err := s.Bootstrap(rs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestAvailabilityEndpoint(t *testing.T) {
	_, ts := splitServer(t)

	// Far west of the metro origin the synthetic field is free: the
	// probe's cell ends more than 10 km west of the occupied east.
	west := rfenv.MetroCenter.Offset(270, 15000)
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
	if e.Confidence != 1 {
		t.Errorf("confidence %v, want 1: a built verdict is a rule, not a vote", e.Confidence)
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
	_, ts := splitServer(t)

	west := rfenv.MetroCenter.Offset(270, 15000)
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
		t.Fatalf("22 km route produced %d segments", len(route.Segments))
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

// TestGridReadsTheTrainedPrefix: the grid is derived from the readings
// the serving model was labelled from, so hot uploads into a free cell
// move nothing until a retrain takes them in.
func TestGridReadsTheTrainedPrefix(t *testing.T) {
	s, ts := splitServer(t)
	west := rfenv.MetroCenter.Offset(270, 15000)
	verdict := func() geoindex.ChannelAvailability {
		t.Helper()
		vs := s.GeoIndex().Rebuild(context.Background()).Lookup(geoindex.CellOf(west, geoindex.DefaultCellDeg))
		if len(vs) != 1 {
			t.Fatalf("verdicts at the west probe: %+v", vs)
		}
		return vs[0]
	}
	before := verdict()
	if before.Status != geoindex.StatusFree {
		t.Fatalf("west probe: %+v, want free", before)
	}
	hot := synthReadings(20, 47, 9)
	inCell := 0
	for i := range hot {
		hot[i].Loc = west.Offset(float64(i*18), float64(i)*20)
		hot[i].Signal = features.Signal{RSSdBm: -70, CFTdB: -81.3, AFTdB: -83}
		if geoindex.CellOf(hot[i].Loc, geoindex.DefaultCellDeg) == geoindex.CellOf(west, geoindex.DefaultCellDeg) {
			inCell++
		}
	}
	uploadJSONReadings(t, ts, hot, 0.4)
	if got := verdict(); got != before {
		t.Errorf("untrained uploads moved the west verdict: %+v, was %+v", got, before)
	}
	resp, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %s", resp.Status)
	}
	if got := verdict(); got.Status != geoindex.StatusOccupied || got.Readings != before.Readings+inCell || got.ModelVersion != before.ModelVersion+1 {
		t.Errorf("after the retrain the west verdict is %+v, want occupied on %d readings at v%d", got, before.Readings+inCell, before.ModelVersion+1)
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

// gridNames reports whether g has a verdict from store ch/kind cast
// with model version v.
func gridNames(g *geoindex.Snapshot, ch rfenv.Channel, kind sensor.Kind, v int) bool {
	var wire struct {
		Cells []struct {
			Verdicts []geoindex.ChannelAvailability
		}
	}
	if json.Unmarshal(geoindex.EncodeGrid(g), &wire) != nil {
		return false
	}
	for _, c := range wire.Cells {
		for _, e := range c.Verdicts {
			if e.Channel == ch && e.Sensor == kind && e.ModelVersion == v {
				return true
			}
		}
	}
	return false
}

// TestEveryInstalledModelPublishesAGrid: however a model version is
// installed — Bootstrap, POST /v1/retrain, a replicated retrain, or
// recovery from the WAL by Open — the server publishes a grid that names
// the store at that version, so a gateway copying the stores its grid
// names copies this one.
func TestEveryInstalledModelPublishesAGrid(t *testing.T) {
	seed := synthReadings(600, 47, 1)
	cfg := Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}}
	for _, tc := range []struct {
		name    string
		install func(t *testing.T) *Server
	}{
		{"Bootstrap", func(t *testing.T) *Server {
			s := New(cfg)
			if err := s.Bootstrap(seed); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"POST /v1/retrain", func(t *testing.T) *Server {
			s, ts := bootedServer(t)
			resp, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("retrain = %s", resp.Status)
			}
			return s
		}},
		{"ApplyReplicatedRetrain", func(t *testing.T) *Server {
			s := New(cfg)
			rec, _ := core.AppendReadingsRecord(nil, seed)
			if err := s.ApplyRecord(context.Background(), 47, sensor.KindRTLSDR, rec); err != nil {
				t.Fatal(err)
			}
			if err := s.ApplyRecord(context.Background(), 47, sensor.KindRTLSDR, core.AppendRetrainRecord(nil, 3, len(seed))); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"Open after recovery", func(t *testing.T) *Server {
			dir := t.TempDir()
			s, err := Open(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Bootstrap(seed); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if s, err = Open(durableConfig(dir)); err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.install(t)
			defer s.Close()
			v := s.ModelVersion(47, sensor.KindRTLSDR)
			for deadline := time.Now().Add(5 * time.Second); !gridNames(s.GeoIndex().Snapshot(), 47, sensor.KindRTLSDR, v); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("no published grid names 47/RTL at the installed v%d (generation %d)", v, s.GeoIndex().Snapshot().Generation)
				}
			}
		})
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
	if snap, err := geoindex.DecodeGrid(first.body); err != nil || snap.Generation != s.GeoIndex().Snapshot().Generation {
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
