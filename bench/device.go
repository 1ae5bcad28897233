package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// The two in-process workloads time the paper's own paths with no
// network and no SUT process: wsd_scan is the device (FFT → features →
// detector → classify), train is the database's model constructor.

const (
	scansPerSecond = 1900
	trainPerSecond = 6
	// Replay pool: scanLocations × 9 channels × scanObservations captures
	// of 256 complex samples ≈ 37 MB, larger than cache, as fresh USB
	// samples are.
	scanLocations    = 32
	scanObservations = 32
	// scanWarmup scans run untimed on every set-up; their decisions also
	// feed the same-seed determinism check.
	scanWarmup = 4 * scanLocations
	// scanAlphaDB is the detector sensitivity of Table 1.
	scanAlphaDB = 0.5
	// maxFalseSafeShare bounds "decided safe where truth says occupied":
	// the Table 1 regime is 0.047–0.048 (EXPERIMENTS.md).
	maxFalseSafeShare = 0.08
)

// constructorConfig is the shipped server's model constructor: SVM,
// three localities, location + RSS + CFT.
func constructorConfig(kind core.ClassifierKind) core.ConstructorConfig {
	return core.ConstructorConfig{ClusterK: 3, Classifier: kind, Features: features.SetLocationRSSCFT}
}

// buildChannel is one channel's trainer path: Algorithm 1 labels, then
// the model constructor.
func buildChannel(rs []dataset.Reading, cfg core.ConstructorConfig) (*core.Model, error) {
	labels, err := dataset.LabelReadings(rs, dataset.LabelConfig{})
	if err != nil {
		return nil, err
	}
	return core.BuildModel(rs, labels, cfg)
}

// replayRadio is a client.Radio that replays pre-synthesised captures,
// so a timed Scan spends nothing on simulating the air.
type replayRadio struct {
	cal sensor.Calibration
	// obs[location][channel index] is a ring of captures; cursor walks
	// it so successive scans at one place see different windows.
	obs     [][][]sensor.Observation
	cursor  [][]int
	chIndex map[rfenv.Channel]int
	at      int // current location
}

var _ client.Radio = (*replayRadio)(nil)

func (r *replayRadio) Capture(ch rfenv.Channel) (sensor.Observation, error) {
	ci, ok := r.chIndex[ch]
	if !ok {
		return sensor.Observation{}, fmt.Errorf("replay radio: no captures for %v", ch)
	}
	ring := r.obs[r.at][ci]
	o := ring[r.cursor[r.at][ci]%len(ring)]
	r.cursor[r.at][ci]++
	return o, nil
}

func (r *replayRadio) Calibration() sensor.Calibration { return r.cal }
func (r *replayRadio) DwellTime() time.Duration        { return 20 * time.Millisecond }

// scanRig is one complete wsd_scan set-up.
type scanRig struct {
	wsd   *client.WSD
	radio *replayRadio
	locs  []geo.Point
	// truth[location][channel index] is the Algorithm 1 label computed
	// from the simulator's true received power instead of measurements.
	truth [][]dataset.Label
	camp  *wardrive.Campaign
}

// setupScan generates the paper-scale campaign, trains the nine SVM
// models a WSD would download, and synthesises the replay pool.
func setupScan(samples, locations, observations int) (*scanRig, error) {
	camp, err := genCampaign(samples, metroChannels)
	if err != nil {
		return nil, err
	}
	rig := &scanRig{camp: camp}
	models := make(map[rfenv.Channel]*core.Model, len(camp.Channels))
	chIndex := make(map[rfenv.Channel]int, len(camp.Channels))
	truthByCh := make([][]dataset.Label, len(camp.Channels))
	for ci, ch := range camp.Channels {
		rs := camp.Readings(ch, rtl)
		if models[ch], err = buildChannel(rs, constructorConfig(core.KindSVM)); err != nil {
			return nil, fmt.Errorf("model %v: %w", ch, err)
		}
		chIndex[ch] = ci
		ideal := append([]dataset.Reading(nil), rs...)
		for i := range ideal {
			ideal[i].Signal.RSSdBm = ideal[i].TrueDBm
		}
		if truthByCh[ci], err = dataset.LabelReadings(ideal, dataset.LabelConfig{}); err != nil {
			return nil, err
		}
	}

	// The places, the device's calibration and every capture are part of
	// the fixed world, like the campaign: how many readings a detection
	// needs depends on the captures it sees, so captures drawn from the
	// seed would make a scan cost more at one seed than at another (p95
	// moved 30 % between seeds). The seed decides the order the places are
	// visited in; the j-th visit to a place replays the same captures
	// whatever the order, so every seed runs the same scans.
	placeRng := rand.New(rand.NewSource(campaignSeed + 3))
	rng := rand.New(rand.NewSource(campaignSeed + 4))
	dev := sensor.NewDevice(sensor.RTLSDR())
	if err := sensor.CalibrateAndInstall(dev, rng, sensor.CalibrationConfig{}); err != nil {
		return nil, err
	}
	radio := &replayRadio{cal: dev.Calibration(), chIndex: chIndex}
	points := camp.Route.Points
	for l := 0; l < locations; l++ {
		pi := placeRng.Intn(len(points))
		loc := points[pi]
		rig.locs = append(rig.locs, loc)
		perCh := make([][]sensor.Observation, len(camp.Channels))
		truth := make([]dataset.Label, len(camp.Channels))
		for ci, ch := range camp.Channels {
			truth[ci] = truthByCh[ci][pi]
			for o := 0; o < observations; o++ {
				obs, err := dev.Observe(rng, camp.Env.RSSDBm(ch, loc), camp.Env.StrongestDBm(loc, ch))
				if err != nil {
					return nil, err
				}
				perCh[ci] = append(perCh[ci], obs)
			}
		}
		radio.obs = append(radio.obs, perCh)
		radio.cursor = append(radio.cursor, make([]int, len(camp.Channels)))
		rig.truth = append(rig.truth, truth)
	}
	rig.radio = radio
	rig.wsd = &client.WSD{
		Radio: radio, Models: models,
		Detector:              core.DetectorConfig{AlphaDB: scanAlphaDB},
		MaxReadingsPerChannel: observations,
	}
	return rig, nil
}

// scanTally accumulates decision quality over scans.
type scanTally struct {
	decisions, converged, readings int
	occupied, falseSafe            int    // truth NotSafe; of those, decided Safe
	vacant, falseUnsafe            int    // truth Safe; of those, decided NotSafe
	digest                         uint64 // FNV-1a over every decision, in order
}

func (t *scanTally) fold(vals ...int) {
	if t.digest == 0 {
		t.digest = 14695981039346656037
	}
	for _, v := range vals {
		t.digest = (t.digest ^ uint64(v)) * 1099511628211
	}
}

// scan runs one duty cycle at location l and folds its decisions into
// the tally.
func (rig *scanRig) scan(l int, t *scanTally) (time.Duration, error) {
	rig.radio.at = l
	start := time.Now()
	res, err := rig.wsd.Scan(rig.locs[l])
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	for ci, cs := range res.Channels {
		t.decisions++
		t.readings += cs.Decision.ReadingsUsed
		if cs.Decision.Converged {
			t.converged++
		}
		safe := cs.Decision.Label == dataset.LabelSafe
		if rig.truth[l][ci] == dataset.LabelNotSafe {
			t.occupied++
			if safe {
				t.falseSafe++
			}
		} else {
			t.vacant++
			if !safe {
				t.falseUnsafe++
			}
		}
		t.fold(l, int(cs.Channel), int(cs.Decision.Label), cs.Decision.ReadingsUsed)
	}
	return d, nil
}

// deviceWindow replays one in-process window: nOps ops, one goroutine,
// marks at the segment boundaries. The SUT is library code inside the
// benchmark process, so its CPU clock is the process's own (clock 0).
func deviceWindow(res *result, nOps int, do func(i int) (time.Duration, error)) timedWindow {
	lat := make(samples, nOps)
	ok := make([]bool, nOps)
	var win window
	for i := 0; i < nOps; i++ {
		if boundary(i, 0, nOps) {
			win.mark(i)
		}
		if refDue(i, 0, nOps) {
			win.sampleRef()
		}
		d, err := do(i)
		if err != nil {
			res.Ops.Failed++
			if len(res.Notes) < 5 {
				res.Notes = append(res.Notes, err.Error())
			}
			continue
		}
		lat[i], ok[i] = d, true
	}
	win.mark(nOps)
	res.Ops.Attempted += nOps
	return win.finish(func(from, to int) samples {
		var out samples
		for i := from; i < to; i++ {
			if ok[i] {
				out = append(out, lat[i])
			}
		}
		return out
	})
}

// runScan is the wsd_scan workload. size scales the campaign and pool
// (1 = paper scale) so the smoke test can run it small.
func runScan(seed int64, seconds float64, traced bool, size float64) (*result, error) {
	res := &result{Workload: wlScan, Seed: seed, Seconds: seconds, Traced: traced, Clients: 1, Metrics: metricSet{}}
	nSamples := max(int(paperSamples*size), 300)
	locations := max(int(scanLocations*size), 4)
	// Whole rounds of the places, so every seed visits each equally often.
	nScans := max(int(scansPerSecond*seconds/windowsPerRun)/locations, 2) * locations
	// The seed decides the order the places are visited in, anew each round.
	rng := rand.New(rand.NewSource(seed + 301))
	visit := make([]int, 0, nScans)
	for len(visit) < nScans {
		visit = append(visit, rng.Perm(locations)...)
	}

	var (
		rig     *scanRig
		setups  []float64
		windows []timedWindow
		digests []uint64
		tally   scanTally
	)
	for w := 0; w < windowsPerRun; w++ {
		rig = nil // let the previous pool go before the next is built
		t0 := time.Now()
		r, err := setupScan(nSamples, locations, scanObservations)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		var warm scanTally
		for i := 0; i < scanWarmup; i++ {
			if _, err := r.scan(i%locations, &warm); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		rig = r

		tally = scanTally{}
		windows = append(windows, deviceWindow(res, nScans, func(i int) (time.Duration, error) {
			return rig.scan(visit[i], &tally)
		}))
		digests = append(digests, tally.digest)
	}
	res.Ops.Warmup = scanWarmup
	res.Ops.Succeeded = res.Ops.Attempted - res.Ops.Failed
	res.Windows = dumpWindows(windows)

	m := res.Metrics
	putEndToEnd(m, setups, windows, 0, 1)
	sorted := pooledMS(windows)
	m.put("scan_p50_us", 1e3*percentile(sorted, 50), len(sorted), "all windows pooled")
	if supports(len(sorted), 99) {
		m.put("scan_p99_us", 1e3*percentile(sorted, 99), len(sorted), "all windows pooled")
	}
	// Every window makes the same decisions, so the last one's tally is
	// the run's.
	m.set("core.readings_per_decision", ratio(float64(tally.readings), float64(tally.decisions)))
	m.set("core.converged_share", ratio(float64(tally.converged), float64(tally.decisions)))
	falseSafe := ratio(float64(tally.falseSafe), float64(tally.occupied))
	m.put("core.false_safe_share", falseSafe, tally.occupied, "")
	m.put("core.false_unsafe_share", ratio(float64(tally.falseUnsafe), float64(tally.vacant)), tally.vacant, "")

	same := true
	for _, d := range digests {
		same = same && d == digests[0]
	}
	res.addCheck("same_seed_same_decisions", same, "%d set-ups from seed %d produced decision digests %x over their windows", len(digests), seed, digests)
	res.addCheck("false_safe_within_table1_regime", tally.occupied > 0 && falseSafe <= maxFalseSafeShare,
		"decided safe on %d of %d occupied (channel, place) decisions = %.4f, limit %.2f", tally.falseSafe, tally.occupied, falseSafe, maxFalseSafeShare)
	if traced {
		if err := traceScan(rig, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// runTrain is the train workload: "rebuild the metro" — labels and an
// SVM model for each of the nine channels at paper scale, one set after
// another, one construction worker (what a cluster shard, which gets one
// P, builds with). With the default pool the build runs on every
// hyperthread at once, contends with itself, and a burst on the host then
// slows it only two thirds as much as it slows the single-threaded speed
// reference, so the correction overshot (README.md).
func runTrain(seed int64, seconds float64, traced bool, size float64) (*result, error) {
	res := &result{Workload: wlTrain, Seed: seed, Seconds: seconds, Traced: traced, Clients: 1, Metrics: metricSet{}}
	nSamples := max(int(paperSamples*size), 300)
	nSets := max(int(trainPerSecond*seconds/windowsPerRun), 4)
	cfg := constructorConfig(core.KindSVM)
	cfg.Workers = 1
	// The campaign is fixed; the seed decides the order the nine
	// channels are rebuilt in.
	order := rand.New(rand.NewSource(seed + 400)).Perm(len(metroChannels))
	rebuild := func(camp *wardrive.Campaign) error {
		for _, ci := range order {
			ch := camp.Channels[ci]
			if _, err := buildChannel(camp.Readings(ch, rtl), cfg); err != nil {
				return fmt.Errorf("%v: %w", ch, err)
			}
		}
		return nil
	}

	var (
		camp    *wardrive.Campaign
		setups  []float64
		windows []timedWindow
	)
	for w := 0; w < windowsPerRun; w++ {
		t0 := time.Now()
		c, err := genCampaign(nSamples, metroChannels)
		if err == nil {
			err = rebuild(c) // one warm-up set
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		camp = c
		windows = append(windows, deviceWindow(res, nSets, func(int) (time.Duration, error) {
			t0 := time.Now()
			err := rebuild(camp)
			return time.Since(t0), err
		}))
	}
	res.Ops.Warmup = 1
	res.Ops.Succeeded = res.Ops.Attempted - res.Ops.Failed
	res.Windows = dumpWindows(windows)

	m := res.Metrics
	putEndToEnd(m, setups, windows, 0, 1)
	sorted := pooledMS(windows)
	m.put("train_p50_ms", percentile(sorted, 50), len(sorted), "all windows pooled")

	// Two builds of one channel must encode to identical bytes.
	var enc [2]bytes.Buffer
	ch := camp.Channels[len(camp.Channels)-1]
	for i := range enc {
		model, err := buildChannel(camp.Readings(ch, rtl), cfg)
		if err != nil {
			return nil, err
		}
		if err := core.EncodeModel(&enc[i], model); err != nil {
			return nil, err
		}
	}
	res.addCheck("rebuild_is_byte_identical", bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) && enc[0].Len() > 0,
		"two builds of %v encode to %d and %d bytes", ch, enc[0].Len(), enc[1].Len())
	if traced {
		if err := traceTrain(camp, seed, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}
