package client

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// ringRadio replays fixed captures per channel, round-robin, and counts
// how many were taken.
type ringRadio struct {
	cal      sensor.Calibration
	rings    map[rfenv.Channel][]sensor.Observation
	next     map[rfenv.Channel]int
	captures int
}

func (r *ringRadio) Capture(ch rfenv.Channel) (sensor.Observation, error) {
	ring := r.rings[ch]
	o := ring[r.next[ch]%len(ring)]
	r.next[ch]++
	r.captures++
	return o, nil
}

func (r *ringRadio) Calibration() sensor.Calibration { return r.cal }
func (r *ringRadio) DwellTime() time.Duration        { return 20 * time.Millisecond }

// TestSenseChannelStopsAtDetectorCap: a channel that will not converge is
// sensed up to the detector's MaxReadings — readings past it would be
// captured, extracted and dropped — or to MaxReadingsPerChannel when
// that is lower.
func TestSenseChannelStopsAtDetectorCap(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	m, _, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	dev := calibratedDevice(t, sensor.RTLSDR(), rng)
	// Alternating strong and absent: the CI span never gets under α.
	var ring []sensor.Observation
	for i := 0; i < 64; i++ {
		dbm := -60.0
		if i%2 == 1 {
			dbm = math.Inf(-1)
		}
		obs, err := dev.Observe(rng, dbm, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		ring = append(ring, obs)
	}
	for _, tc := range []struct {
		name                    string
		maxReadings, perChannel int
		want                    int
	}{
		{"detector cap", 128, 0, 128},
		{"detector default", 0, 0, 1024},
		{"per-channel cap below", 128, 40, 40},
		{"per-channel cap above", 128, 500, 128},
	} {
		radio := &ringRadio{
			cal:   dev.Calibration(),
			rings: map[rfenv.Channel][]sensor.Observation{47: ring},
			next:  map[rfenv.Channel]int{},
		}
		wsd := &WSD{
			Radio: radio, Models: map[rfenv.Channel]*core.Model{47: m},
			Detector:              core.DetectorConfig{AlphaDB: 0.5, MaxReadings: tc.maxReadings},
			MaxReadingsPerChannel: tc.perChannel,
		}
		cs, err := wsd.SenseChannel(47, rfenv.MetroCenter)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Decision.Converged {
			t.Fatalf("%s: alternating stream converged: %+v", tc.name, cs.Decision)
		}
		if radio.captures != tc.want || cs.Decision.ReadingsUsed != tc.want {
			t.Errorf("%s: %d captures, %d readings used, want %d", tc.name, radio.captures, cs.Decision.ReadingsUsed, tc.want)
		}
		if want := time.Duration(tc.want) * radio.DwellTime(); cs.AirTime != want {
			t.Errorf("%s: air time %v, want %v", tc.name, cs.AirTime, want)
		}
	}
}

// metroRig is a 9-channel WSD like the wsd_scan benchmark's: SVM models
// with three localities over location + RSS + CFT, and a replay radio
// with a ring of captures per channel.
func metroRig(t *testing.T) (*WSD, *ringRadio, []rfenv.Channel) {
	t.Helper()
	env, err := rfenv.BuildMetro(21)
	if err != nil {
		t.Fatal(err)
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: 300, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	channels := rfenv.MeasuredChannels
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route, Channels: channels,
		Sensors: []sensor.Spec{sensor.RTLSDR()}, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	dev := calibratedDevice(t, sensor.RTLSDR(), rng)
	loc := route.Points[17]
	radio := &ringRadio{
		cal:   dev.Calibration(),
		rings: map[rfenv.Channel][]sensor.Observation{},
		next:  map[rfenv.Channel]int{},
	}
	models := make(map[rfenv.Channel]*core.Model, len(channels))
	for _, ch := range channels {
		rs := camp.Readings(ch, sensor.KindRTLSDR)
		labels, err := dataset.LabelReadings(rs, dataset.LabelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		models[ch], err = core.BuildModel(rs, labels, core.ConstructorConfig{
			ClusterK: 3, Classifier: core.KindSVM, Features: features.SetLocationRSSCFT,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			obs, err := dev.Observe(rng, env.RSSDBm(ch, loc), env.StrongestDBm(loc, ch))
			if err != nil {
				t.Fatal(err)
			}
			radio.rings[ch] = append(radio.rings[ch], obs)
		}
	}
	wsd := &WSD{
		Radio: radio, Models: models,
		Detector:              core.DetectorConfig{AlphaDB: 0.5},
		MaxReadingsPerChannel: 32,
	}
	return wsd, radio, channels
}

// TestScanAllocBudget pins the allocations of one warm 9-channel duty
// cycle. Extraction and the detector's trim/smooth chain allocate
// nothing once the WSD's detectors have grown their streams, and
// Model.Classify keeps its vectors on the stack; what is left is the
// result and the channel order. The parent of the first budget spent
// about 480, the classifier's vectors were 21 of the next one's 23.
func TestScanAllocBudget(t *testing.T) {
	wsd, _, channels := metroRig(t)
	loc := rfenv.MetroCenter
	for i := 0; i < 8; i++ { // every ring offset has been seen
		if _, err := wsd.Scan(loc); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(50, func() {
		res, err := wsd.Scan(loc)
		if err != nil || len(res.Channels) != len(channels) {
			t.Fatalf("scan: %d channels, %v", len(res.Channels), err)
		}
	})
	t.Logf("%.0f allocs per %d-channel scan", n, len(channels))
	if raceEnabled {
		return // the pooled transform scratch is not kept; see raceEnabled
	}
	if n > 2 {
		t.Errorf("allocs per scan = %v, budget 2", n)
	}
}

// sleepyRadio is a radio whose captures take real time, as a dongle's do.
type sleepyRadio struct {
	Radio
	capture time.Duration
}

func (r sleepyRadio) Capture(ch rfenv.Channel) (sensor.Observation, error) {
	time.Sleep(r.capture)
	return r.Radio.Capture(ch)
}

// TestSenseChannelCPUTimeExcludesCapture: CPUTime is the device's
// processing — extraction, detector, decision — and none of the time the
// radio spends capturing, however the clock reads are arranged.
func TestSenseChannelCPUTimeExcludesCapture(t *testing.T) {
	wsd, radio, channels := metroRig(t)
	const capture = 20 * time.Millisecond
	wsd.Radio = sleepyRadio{Radio: radio, capture: capture}
	wsd.MaxReadingsPerChannel = 4
	start := time.Now()
	cs, err := wsd.SenseChannel(channels[0], rfenv.MetroCenter)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	captures := int(cs.AirTime / radio.DwellTime())
	if captures < 1 || elapsed < time.Duration(captures)*capture {
		t.Fatalf("%d captures in %v: the radio did not sleep", captures, elapsed)
	}
	// A capture's processing is a fraction of a millisecond; half of one
	// capture's sleep leaves a loaded machine two orders of magnitude.
	if cs.CPUTime <= 0 || cs.CPUTime >= capture/2 {
		t.Errorf("CPUTime = %v over %d captures of %v each (elapsed %v): capture time leaked in", cs.CPUTime, captures, capture, elapsed)
	}
}

// TestScanReusedDetectorsDecideAlike: a WSD that keeps its detectors
// across scans decides exactly as fresh WSDs do, scan after scan, and
// takes a replaced model or a changed detector configuration at once.
func TestScanReusedDetectorsDecideAlike(t *testing.T) {
	kept, radio, channels := metroRig(t)
	loc := rfenv.MetroCenter
	fresh := func() ScanResult {
		t.Helper()
		saved := map[rfenv.Channel]int{}
		for ch, n := range radio.next {
			saved[ch] = n
		}
		one := &WSD{Radio: radio, Models: kept.Models, Detector: kept.Detector, MaxReadingsPerChannel: kept.MaxReadingsPerChannel}
		res, err := one.Scan(loc)
		if err != nil {
			t.Fatal(err)
		}
		radio.next = saved // the kept WSD replays the same captures
		return res
	}
	check := func(step string) {
		t.Helper()
		want := fresh()
		got, err := kept.Scan(loc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Channels {
			w, g := want.Channels[i], got.Channels[i]
			if w.Channel != g.Channel || w.Decision != g.Decision || w.AirTime != g.AirTime {
				t.Fatalf("%s, %v: %+v, fresh WSD %+v", step, w.Channel, g.Decision, w.Decision)
			}
		}
	}
	for i := 0; i < 6; i++ {
		check("steady")
	}
	// Swap two channels' models: decisions must follow the models.
	a, b := channels[0], channels[len(channels)-1]
	kept.Models[a], kept.Models[b] = kept.Models[b], kept.Models[a]
	check("models swapped")
	kept.Detector.AlphaDB = 3
	check("alpha changed")
	kept.Detector.MaxReadings = 9
	check("cap changed")
}
