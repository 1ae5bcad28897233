package dbserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

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

func bootedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHealth(t *testing.T) {
	_, ts := bootedServer(t)
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health = %s", resp.Status)
	}
}

func TestModelDownload(t *testing.T) {
	_, ts := bootedServer(t)
	resp, err := http.Get(ts.URL + "/v1/model?channel=47&sensor=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model download = %s", resp.Status)
	}
	if v := resp.Header.Get("X-Waldo-Model-Version"); v != "1" {
		t.Errorf("version = %q, want 1", v)
	}
	m, err := core.DecodeModel(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Channel != 47 || m.Sensor != sensor.KindRTLSDR {
		t.Errorf("decoded model %v/%v", m.Channel, m.Sensor)
	}
	// The downloaded model must classify.
	got, err := m.Classify(rfenv.MetroCenter.Offset(90, 5000), features.Signal{RSSdBm: -70, CFTdB: -81, AFTdB: -83})
	if err != nil {
		t.Fatal(err)
	}
	if got != dataset.LabelNotSafe {
		t.Errorf("east strong signal → %v", got)
	}
}

func TestModelDownloadErrors(t *testing.T) {
	_, ts := bootedServer(t)
	cases := map[string]int{
		"/v1/model?channel=xx&sensor=1": http.StatusBadRequest,
		"/v1/model?channel=47&sensor=9": http.StatusBadRequest,
		"/v1/model?channel=5&sensor=1":  http.StatusBadRequest,
		"/v1/model?channel=30&sensor=1": http.StatusNotFound, // no data for ch30
	}
	for path, want := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestUploadAndRetrain(t *testing.T) {
	s, ts := bootedServer(t)
	up := UploadJSON{CISpanDB: 0.4}
	for _, r := range synthReadings(50, 47, 2) {
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s", resp.Status)
	}
	if got := s.StoreSize(47, sensor.KindRTLSDR); got != 650 {
		t.Errorf("store size = %d, want 650", got)
	}

	resp, err = http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %s", resp.Status)
	}
	if v := resp.Header.Get("X-Waldo-Model-Version"); v != "2" {
		t.Errorf("version after retrain = %q, want 2", v)
	}
}

func TestUploadRejections(t *testing.T) {
	_, ts := bootedServer(t)
	post := func(v any) int {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Empty.
	if code := post(UploadJSON{}); code != http.StatusBadRequest {
		t.Errorf("empty upload = %d", code)
	}
	// Noisy (α′ exceeded).
	noisy := UploadJSON{CISpanDB: 5}
	for _, r := range synthReadings(5, 47, 3) {
		noisy.Readings = append(noisy.Readings, FromReading(r))
	}
	if code := post(noisy); code != http.StatusUnprocessableEntity {
		t.Errorf("noisy upload = %d", code)
	}
	// Invalid channel.
	bad := UploadJSON{CISpanDB: 0.1, Readings: []ReadingJSON{{Channel: 99, Sensor: 1, Lat: 33, Lon: -84}}}
	if code := post(bad); code != http.StatusBadRequest {
		t.Errorf("bad channel upload = %d", code)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed upload = %d", resp.StatusCode)
	}
}

func TestReadingJSONRoundTrip(t *testing.T) {
	r := dataset.Reading{
		Seq: 7, Loc: geo.Point{Lat: 33.7, Lon: -84.4}, Channel: 30, Sensor: sensor.KindUSRPB200,
		Signal: features.Signal{RSSdBm: -88.5, CFTdB: -99.5, AFTdB: -101},
	}
	if back := FromReading(r).ToReading(); back != r {
		t.Errorf("round trip mismatch: %+v vs %+v", back, r)
	}
}

func TestExportCSV(t *testing.T) {
	_, ts := bootedServer(t)
	resp, err := http.Get(ts.URL + "/v1/export?channel=47&sensor=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %s", resp.Status)
	}
	rows, err := dataset.ReadCSV(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 600 {
		t.Errorf("exported %d rows, want 600", len(rows))
	}
	// Missing store.
	resp, err = http.Get(ts.URL + "/v1/export?channel=30&sensor=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("export of empty store = %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	_, ts := bootedServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %s", resp.Status)
	}
	var stats []StatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("stats entries = %d, want 1", len(stats))
	}
	st := stats[0]
	if st.Channel != 47 || st.Sensor != 1 || st.Readings != 600 ||
		st.ModelVersion != 1 || st.ModelBytes == 0 {
		t.Errorf("stats entry = %+v", st)
	}
}

func TestUploadScreening(t *testing.T) {
	// The synthetic store is sparse (600 points over ~300 km²) with a
	// hard east/west RSS step, so screening needs a wide neighborhood
	// and a tolerance just above the step.
	s := New(Config{
		Constructor: core.ConstructorConfig{Classifier: core.KindNB},
		Screening:   &core.ValidatorConfig{NeighborhoodM: 3000, ToleranceDB: 31},
	})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(up UploadJSON) int {
		body, err := json.Marshal(up)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Honest upload: revisits stored locations with consistent readings
	// (the synthetic field is a hard east/west step, so fresh random
	// locations near the boundary would legitimately look suspect).
	honest := UploadJSON{CISpanDB: 0.3}
	for _, r := range synthReadings(600, 47, 1)[:40] {
		honest.Readings = append(honest.Readings, FromReading(r))
	}
	if code := post(honest); code != http.StatusNoContent {
		t.Fatalf("honest upload = %d", code)
	}
	if got := s.StoreSize(47, sensor.KindRTLSDR); got != 640 {
		t.Errorf("store size = %d, want 640", got)
	}

	// Fabricated upload: all RSS shifted 45 dB.
	attack := UploadJSON{CISpanDB: 0.3}
	for _, r := range synthReadings(40, 47, 3) {
		rj := FromReading(r)
		rj.RSSdBm -= 45
		attack.Readings = append(attack.Readings, rj)
	}
	if code := post(attack); code != http.StatusUnprocessableEntity {
		t.Errorf("fabricated upload = %d, want 422", code)
	}
	if got := s.StoreSize(47, sensor.KindRTLSDR); got != 640 {
		t.Errorf("store grew after rejected attack: %d", got)
	}
}

// TestConcurrentAccess hammers the server from parallel clients: model
// downloads, uploads, retrains, and stats must be safe together (run with
// -race).
func TestConcurrentAccess(t *testing.T) {
	_, ts := bootedServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (worker + i) % 4 {
				case 0:
					resp, err := http.Get(ts.URL + "/v1/model?channel=47&sensor=1")
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				case 1:
					up := UploadJSON{CISpanDB: 0.3}
					for _, r := range synthReadings(5, 47, int64(worker*100+i)) {
						up.Readings = append(up.Readings, FromReading(r))
					}
					body, _ := json.Marshal(up)
					resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				case 2:
					resp, err := http.Post(ts.URL+"/v1/retrain?channel=47&sensor=1", "", nil)
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				default:
					resp, err := http.Get(ts.URL + "/v1/stats")
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentMultiChannelNoLostUpdates drives parallel uploads and
// model fetches across several channels under the race detector and
// asserts no accepted reading is lost: the RWMutex lookup path must not
// let downloads starve or corrupt upload ingestion.
func TestConcurrentMultiChannelNoLostUpdates(t *testing.T) {
	channels := []rfenv.Channel{46, 47, 39}
	s := New(Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
	const bootN = 300
	for _, ch := range channels {
		if err := s.Bootstrap(synthReadings(bootN, ch, int64(ch))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const (
		uploaders      = 3 // per channel
		uploadsEach    = 8
		batchSize      = 5
		downloadersPer = 2
	)
	var wg sync.WaitGroup
	errs := make(chan error, len(channels)*(uploaders+downloadersPer)*uploadsEach)
	for _, ch := range channels {
		for w := 0; w < uploaders; w++ {
			wg.Add(1)
			go func(ch rfenv.Channel, worker int) {
				defer wg.Done()
				for i := 0; i < uploadsEach; i++ {
					up := UploadJSON{CISpanDB: 0.3}
					for _, r := range synthReadings(batchSize, ch, int64(int(ch)*1000+worker*100+i)) {
						up.Readings = append(up.Readings, FromReading(r))
					}
					body, _ := json.Marshal(up)
					resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusNoContent {
						errs <- fmt.Errorf("upload ch%d: %s", int(ch), resp.Status)
					}
					resp.Body.Close()
				}
			}(ch, w)
		}
		for w := 0; w < downloadersPer; w++ {
			wg.Add(1)
			go func(ch rfenv.Channel) {
				defer wg.Done()
				for i := 0; i < uploadsEach; i++ {
					resp, err := http.Get(fmt.Sprintf("%s/v1/model?channel=%d&sensor=1", ts.URL, int(ch)))
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("download ch%d: %s", int(ch), resp.Status)
					}
					resp.Body.Close()
				}
			}(ch)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := bootN + uploaders*uploadsEach*batchSize
	for _, ch := range channels {
		if got := s.StoreSize(ch, sensor.KindRTLSDR); got != want {
			t.Errorf("ch%d store = %d readings, want %d (lost updates)", int(ch), got, want)
		}
	}
}

func TestHealthz(t *testing.T) {
	s, ts := bootedServer(t)
	_ = s
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
	var rep HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" {
		t.Errorf("status = %q", rep.Status)
	}
	if len(rep.Stores) != 1 {
		t.Fatalf("stores = %d, want 1", len(rep.Stores))
	}
	st := rep.Stores[0]
	if st.Channel != 47 || st.Sensor != int(sensor.KindRTLSDR) {
		t.Errorf("store key = ch%d/%d", st.Channel, st.Sensor)
	}
	if st.Readings != 600 {
		t.Errorf("readings = %d, want 600", st.Readings)
	}
	if !st.Trained || st.ModelVersion != 1 {
		t.Errorf("trained=%v version=%d, want trained v1", st.Trained, st.ModelVersion)
	}
}

// TestMetricsEndpoint exercises the observability path end-to-end: server
// traffic must show up in /metrics as request, updater, and detector-free
// (server-side) metric families in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := bootedServer(t)

	// Generate some traffic first.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/model?channel=47&sensor=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	up := UploadJSON{CISpanDB: 0.3}
	for _, r := range synthReadings(4, 47, 9) {
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, _ := json.Marshal(up)
	resp, err := http.Post(ts.URL+"/v1/readings", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE waldo_http_requests_total counter",
		`waldo_http_requests_total{route="/v1/model",code="200"} 3`,
		`waldo_http_requests_total{route="/v1/readings",code="204"} 1`,
		"# TYPE waldo_http_request_seconds histogram",
		"# TYPE waldo_updater_uploads_total counter",
		`waldo_updater_uploads_total{store="ch47/rtl-sdr",outcome="accepted"} 1`,
		"# TYPE waldo_updater_store_readings gauge",
		`waldo_updater_store_readings{store="ch47/rtl-sdr"} 604`,
		"# TYPE waldo_updater_rebuild_seconds histogram",
		"# TYPE waldo_span_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMaxBodyBytes: oversized uploads are rejected, not buffered.
func TestMaxBodyBytes(t *testing.T) {
	s := New(Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		MaxBodyBytes: 1024,
	})
	if err := s.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	big := strings.NewReader(fmt.Sprintf(`{"cispan_db":0.1,"readings":[%s]}`,
		strings.Repeat(`{"seq":1},`, 4096)+`{"seq":1}`))
	resp, err := ts.Client().Post(ts.URL+"/v1/readings", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Errorf("oversized upload status = %d, want a 4xx rejection", resp.StatusCode)
	}
}
