package client

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// testWorld boots an environment, runs a small campaign, and serves it.
type testWorld struct {
	env    *rfenv.Environment
	camp   *wardrive.Campaign
	server *dbserver.Server
	ts     *httptest.Server
	client *Client
}

func newTestWorld(t *testing.T, channels []rfenv.Channel) *testWorld {
	t.Helper()
	env, err := rfenv.BuildMetro(21)
	if err != nil {
		t.Fatal(err)
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: 700, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route, Channels: channels,
		Sensors: []sensor.Spec{sensor.RTLSDR()},
		Seed:    23,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := dbserver.New(dbserver.Config{Constructor: core.ConstructorConfig{Classifier: core.KindNB}})
	var all []dataset.Reading
	for _, ch := range channels {
		all = append(all, camp.Readings(ch, sensor.KindRTLSDR)...)
	}
	if err := srv.Bootstrap(all); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{env: env, camp: camp, server: srv, ts: ts, client: c}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", nil); err == nil {
		t.Error("empty URL must fail")
	}
}

func TestModelFetchAndCache(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	m, size, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || size == 0 {
		t.Fatalf("model=%v size=%d", m, size)
	}
	// Second fetch: cache hit, zero bytes transferred.
	m2, size2, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m || size2 != 0 {
		t.Errorf("cache miss on second fetch (size=%d)", size2)
	}
	w.client.Invalidate(47, sensor.KindRTLSDR)
	_, size3, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if size3 == 0 {
		t.Error("invalidate should force a re-download")
	}
	// Missing model.
	if _, _, err := w.client.Model(context.Background(), 30, sensor.KindRTLSDR); err == nil {
		t.Error("fetch of unknown channel must fail")
	}
}

func TestRefreshRevalidates(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	m, size, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if size == 0 {
		t.Fatal("first fetch should transfer the descriptor")
	}
	// Unchanged model: revalidation is a 304, no bytes on the wire.
	m2, size2, err := w.client.Refresh(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m || size2 != 0 {
		t.Errorf("revalidation of unchanged model transferred %d bytes", size2)
	}
	// A retrain changes the version; Refresh must download the new model.
	if err := w.client.RequestRetrain(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	m3, size3, err := w.client.Refresh(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if size3 == 0 {
		t.Error("refresh after retrain should transfer the new descriptor")
	}
	if m3 == nil {
		t.Fatal("refresh returned nil model")
	}
	// Refresh with nothing cached degrades to a plain fetch.
	w.client.Invalidate(47, sensor.KindRTLSDR)
	if _, size4, err := w.client.Refresh(context.Background(), 47, sensor.KindRTLSDR); err != nil || size4 == 0 {
		t.Errorf("cold refresh: size=%d err=%v", size4, err)
	}
}

func TestUploadPath(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	readings := w.camp.Readings(47, sensor.KindRTLSDR)[:20]
	batch := UploadFromDecision(readings, core.Decision{CISpanDB: 0.3})
	if err := w.client.Upload(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if got := w.server.StoreSize(47, sensor.KindRTLSDR); got != 720 {
		t.Errorf("store size = %d, want 720", got)
	}
	if err := w.client.RequestRetrain(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	// Rejected noisy upload surfaces as an error.
	noisy := UploadFromDecision(readings, core.Decision{CISpanDB: 9})
	if err := w.client.Upload(context.Background(), noisy); err == nil {
		t.Error("noisy upload should be rejected")
	}
	if err := w.client.Upload(context.Background(), core.UploadBatch{}); err == nil {
		t.Error("empty upload should fail client-side")
	}
}

func calibratedDevice(t *testing.T, spec sensor.Spec, rng *rand.Rand) *sensor.Device {
	t.Helper()
	d := sensor.NewDevice(spec)
	if err := sensor.CalibrateAndInstall(d, rng, sensor.CalibrationConfig{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSimRadioAndWSDScan(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{27, 47})
	rng := rand.New(rand.NewSource(24))
	radio := &SimRadio{
		Env:    w.env,
		Device: calibratedDevice(t, sensor.RTLSDR(), rng),
		Rng:    rng,
	}
	loc := rfenv.MetroCenter.Offset(45, 4000)
	radio.SetPosition(loc)

	models := make(map[rfenv.Channel]*core.Model)
	for _, ch := range []rfenv.Channel{27, 47} {
		m, _, err := w.client.Model(context.Background(), ch, sensor.KindRTLSDR)
		if err != nil {
			t.Fatal(err)
		}
		models[ch] = m
	}
	wsd := &WSD{Radio: radio, Models: models, Detector: core.DetectorConfig{AlphaDB: 0.5}}
	res, err := wsd.Scan(loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Channels) != 2 {
		t.Fatalf("scanned %d channels", len(res.Channels))
	}
	for _, cs := range res.Channels {
		if !cs.Decision.Converged {
			t.Errorf("%v: stationary scan did not converge", cs.Channel)
		}
		if cs.AirTime <= 0 || cs.CPUTime < 0 {
			t.Errorf("%v: airtime=%v cpu=%v", cs.Channel, cs.AirTime, cs.CPUTime)
		}
	}
	// Channel 27 is the strong in-town station: must be NotSafe.
	for _, cs := range res.Channels {
		if cs.Channel == 27 && cs.Decision.Label != dataset.LabelNotSafe {
			t.Error("ch27 should be detected occupied")
		}
	}
	// Processing should be a small fraction of a 60 s duty cycle.
	if res.CPUTime <= 0 || res.CPUTime > 30*time.Second {
		t.Errorf("CPU time = %v", res.CPUTime)
	}
}

func TestMobileConvergenceDegrades(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	m, _, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	attempts := 30
	converged := func(speed float64) int {
		rng := rand.New(rand.NewSource(25))
		radio := &SimRadio{
			Env:    w.env,
			Device: calibratedDevice(t, sensor.RTLSDR(), rng),
			Rng:    rng, SpeedMPS: speed, HeadingDeg: 45,
		}
		wsd := &WSD{
			Radio:  radio,
			Models: map[rfenv.Channel]*core.Model{47: m},
			Detector: core.DetectorConfig{
				AlphaDB: 0.5, MaxReadings: 64,
			},
			MaxReadingsPerChannel: 64,
		}
		count := 0
		for i := 0; i < attempts; i++ {
			loc := rfenv.MetroCenter.Offset(float64(i*12), 3000)
			radio.SetPosition(loc)
			cs, err := wsd.SenseChannel(47, loc)
			if err != nil {
				t.Fatal(err)
			}
			if cs.Decision.Converged {
				count++
			}
		}
		return count
	}
	still := converged(0)
	moving := converged(15)
	if still < attempts*8/10 {
		t.Errorf("stationary convergence %d/%d, want nearly all", still, attempts)
	}
	if moving >= still {
		t.Errorf("mobile convergence (%d) should degrade vs stationary (%d)", moving, still)
	}
}

func TestSimRadioValidation(t *testing.T) {
	r := &SimRadio{}
	if _, err := r.Capture(47); err == nil {
		t.Error("unconfigured radio must fail")
	}
	rng := rand.New(rand.NewSource(1))
	env, err := rfenv.BuildMetro(1)
	if err != nil {
		t.Fatal(err)
	}
	r = &SimRadio{Env: env, Device: calibratedDevice(t, sensor.RTLSDR(), rng), Rng: rng}
	if _, err := r.Capture(47); err == nil {
		t.Error("capture before SetPosition must fail")
	}
	if r.DwellTime() != 20*time.Millisecond {
		t.Errorf("default dwell = %v", r.DwellTime())
	}
}

func TestWSDScanUnknownChannel(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	m, _, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	radio := &SimRadio{Env: w.env, Device: calibratedDevice(t, sensor.RTLSDR(), rng), Rng: rng}
	radio.SetPosition(rfenv.MetroCenter)
	wsd := &WSD{Radio: radio, Models: map[rfenv.Channel]*core.Model{47: m}}
	if _, err := wsd.SenseChannel(30, rfenv.MetroCenter); err == nil {
		t.Error("sensing a channel without a model must fail")
	}
}
