package client

import (
	"context"
	"math"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
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
// that is lower. The cap is reached by a WSD measuring the full set,
// which samples to α; one measuring only its model's set stops the same
// occupied stream after 3 captures with NotSafe, and takes no capture at
// all where its model's locality is a constant NotSafe one.
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
			Detector: core.DetectorConfig{
				AlphaDB: 0.5, MaxReadings: tc.maxReadings, Features: features.SetLocationRSSCFTAFT,
			},
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

	radio := &ringRadio{
		cal:   dev.Calibration(),
		rings: map[rfenv.Channel][]sensor.Observation{47: ring},
		next:  map[rfenv.Channel]int{},
	}
	lean := &WSD{
		Radio: radio, Models: map[rfenv.Channel]*core.Model{47: m},
		Detector: core.DetectorConfig{AlphaDB: 0.5, MaxReadings: 128},
	}
	cs, err := lean.SenseChannel(47, rfenv.MetroCenter)
	if err != nil {
		t.Fatal(err)
	}
	if d := cs.Decision; !d.StoppedEarly || d.Converged || d.Label != dataset.LabelNotSafe ||
		radio.captures != 3 || d.ReadingsUsed != 3 || cs.AirTime != 60*time.Millisecond {
		t.Errorf("lean set: %d captures in %v: %+v; want an early NotSafe after 3 captures, 60ms", radio.captures, cs.AirTime, d)
	}

	// ch27 is occupied across the metro: every locality of its model is a
	// constant NotSafe one.
	metro, metroRadio, _, metroLoc := metroRig(t)
	if cs, err = metro.SenseChannel(27, metroLoc); err != nil {
		t.Fatal(err)
	}
	if d := cs.Decision; !d.StoppedEarly || d.Converged || d.Label != dataset.LabelNotSafe ||
		metroRadio.captures != 0 || d.ReadingsUsed != 0 || cs.AirTime != 0 {
		t.Errorf("lean set, constant NotSafe locality: %d captures in %v: %+v; want NotSafe on no capture", metroRadio.captures, cs.AirTime, d)
	}
}

// metroRig is a 9-channel WSD like the wsd_scan benchmark's: SVM models
// with three localities over location + RSS + CFT, and a replay radio
// with a ring of captures per channel, all taken at the place it returns:
// scan there.
func metroRig(t testing.TB) (*WSD, *ringRadio, []rfenv.Channel, geo.Point) {
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
	return wsd, radio, channels, loc
}

// TestScanAllocBudget pins the allocations of one warm 9-channel duty
// cycle. Extraction and the detector's trim/smooth chain allocate
// nothing once the WSD's detectors have grown their streams, and
// Model.Classify keeps its vectors on the stack; what is left is the
// result and the channel order. The parent of the first budget spent
// about 480, the classifier's vectors were 21 of the next one's 23.
func TestScanAllocBudget(t *testing.T) {
	wsd, _, channels, loc := metroRig(t)
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

// BenchmarkScanMetro times one warm duty cycle of the lean 9-channel
// metro WSD at the place its captures were taken: the device path of the
// wsd_scan benchmark workload (extraction, detector, classifier) on
// replayed captures, with no air time. cpu-ns/op is the process's CPU
// time per scan, which a shared host's steal and waits do not inflate as
// they do ns/op.
func BenchmarkScanMetro(b *testing.B) {
	wsd, _, channels, loc := metroRig(b)
	for i := 0; i < 8; i++ { // every ring offset has been seen
		if _, err := wsd.Scan(loc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu := selfCPU()
	for i := 0; i < b.N; i++ {
		res, err := wsd.Scan(loc)
		if err != nil || len(res.Channels) != len(channels) {
			b.Fatalf("scan: %d channels, %v", len(res.Channels), err)
		}
	}
	if b.N > 0 {
		b.ReportMetric(float64(selfCPU()-cpu)/float64(b.N), "cpu-ns/op")
	}
}

// selfCPU is the process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
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
	wsd, radio, channels, loc := metroRig(t)
	const capture = 20 * time.Millisecond
	wsd.Radio = sleepyRadio{Radio: radio, capture: capture}
	wsd.MaxReadingsPerChannel = 4
	start := time.Now()
	cs, err := wsd.SenseChannel(channels[0], loc)
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
	kept, radio, channels, loc := metroRig(t)
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

// TestDefaultSetDecidesAsFullSet: a metro WSD measuring only what its
// location + RSS + CFT models read (the default) decides exactly as one
// measuring all three features, scan after scan — same label,
// convergence, stream length, CI span and RSS/CFT bits on every channel —
// or it stopped the channel early, which only a detector that cannot
// upload does: on no capture with NotSafe, or with the §5 fallback's
// answer on the captures it took, which an unplaced lean detector (one
// that never stops early) gives on them too. Its decisions carry AFT as
// −Inf, so an upload built from one is refused; the full-set WSD's is
// accepted.
func TestDefaultSetDecidesAsFullSet(t *testing.T) {
	lean, radio, channels, loc := metroRig(t)
	full := &WSD{Radio: radio, Models: lean.Models, Detector: lean.Detector, MaxReadingsPerChannel: lean.MaxReadingsPerChannel}
	full.Detector.Features = features.SetLocationRSSCFTAFT
	bits := math.Float64bits
	upload := func(dec core.Decision, ch rfenv.Channel) error {
		return core.UploadBatch{CISpanDB: dec.CISpanDB, Readings: []dataset.Reading{{
			Loc: loc, Channel: ch, Sensor: sensor.KindRTLSDR, Signal: dec.Signal,
		}}}.Validate()
	}
	// fallback decides the n captures of ch's ring from start with an
	// unplaced lean detector.
	fallback := func(ch rfenv.Channel, start, n int) core.Decision {
		t.Helper()
		det, err := core.NewDetector(lean.Models[ch], lean.Detector)
		if err != nil {
			t.Fatal(err)
		}
		ring := radio.rings[ch]
		for k := 0; k < n; k++ {
			sig, err := det.Features().Measure(ring[(start+k)%len(ring)], radio.cal)
			if err != nil {
				t.Fatal(err)
			}
			det.Offer(sig)
		}
		dec, err := det.Decide(loc)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	var stops [3]int // early stops on no capture, NotSafe on captures, Safe
	for scan := 0; scan < 12; scan++ {
		saved := map[rfenv.Channel]int{}
		for ch, n := range radio.next {
			saved[ch] = n
		}
		want, err := full.Scan(loc)
		if err != nil {
			t.Fatal(err)
		}
		from := map[rfenv.Channel]int{}
		for ch, n := range saved {
			from[ch] = n
		}
		radio.next = saved // the lean WSD replays the same captures
		got, err := lean.Scan(loc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Channels) != len(channels) || len(want.Channels) != len(channels) {
			t.Fatalf("scan %d: %d and %d channels, want %d", scan, len(got.Channels), len(want.Channels), len(channels))
		}
		for i := range want.Channels {
			w, g := want.Channels[i].Decision, got.Channels[i].Decision
			ch := want.Channels[i].Channel
			if w.StoppedEarly {
				t.Fatalf("scan %d, %v: the full-set detector stopped early: %+v", scan, ch, w)
			}
			if g.StoppedEarly && g.ReadingsUsed == 0 {
				stops[0]++
				if g.Label != dataset.LabelNotSafe || g.Converged {
					t.Fatalf("scan %d, %v: early stop on no capture %+v, want NotSafe and not converged", scan, ch, g)
				}
			} else if g.StoppedEarly {
				stops[g.Label-dataset.LabelNotSafe+1]++
				if f := fallback(ch, from[ch], g.ReadingsUsed); g.Converged || f.Converged || g.Label != f.Label ||
					g.ReadingsUsed != f.ReadingsUsed || bits(g.CISpanDB) != bits(f.CISpanDB) ||
					bits(g.Signal.RSSdBm) != bits(f.Signal.RSSdBm) || bits(g.Signal.CFTdB) != bits(f.Signal.CFTdB) {
					t.Fatalf("scan %d, %v: early stop %+v, the fallback on its captures %+v", scan, ch, g, f)
				}
			} else if g.Label != w.Label || g.Converged != w.Converged || g.ReadingsUsed != w.ReadingsUsed ||
				bits(g.CISpanDB) != bits(w.CISpanDB) || bits(g.Signal.RSSdBm) != bits(w.Signal.RSSdBm) ||
				bits(g.Signal.CFTdB) != bits(w.Signal.CFTdB) {
				t.Fatalf("scan %d, %v: %+v, full set %+v", scan, ch, g, w)
			}
			if !math.IsInf(g.Signal.AFTdB, -1) || math.IsInf(w.Signal.AFTdB, 0) || math.IsNaN(w.Signal.AFTdB) {
				t.Fatalf("scan %d, %v: AFT %v, full set %v; want −Inf and a measurement", scan, ch, g.Signal.AFTdB, w.Signal.AFTdB)
			}
			if err := upload(g, ch); err == nil {
				t.Fatalf("scan %d, %v: upload of an unmeasured AFT accepted", scan, ch)
			}
			if err := upload(w, ch); w.Converged && err != nil {
				t.Fatalf("scan %d, %v: full-set upload refused: %v", scan, ch, err)
			}
		}
	}
	t.Logf("early stops: %d on no capture, %d NotSafe and %d Safe on captures", stops[0], stops[1], stops[2])
	if stops[0] == 0 || stops[1]+stops[2] == 0 {
		t.Errorf("%d early stops on no capture, %d on captures: the rig misses a side of the rule", stops[0], stops[1]+stops[2])
	}
}
