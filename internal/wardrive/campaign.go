package wardrive

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// CampaignConfig describes a full measurement campaign: every sensor rides
// the same vehicle and observes every channel at every route point, as in
// the paper's three-sensor war-driving rig (Fig. 2).
type CampaignConfig struct {
	// Env is the RF environment; required.
	Env *rfenv.Environment
	// Route is the drive; required.
	Route *Route
	// Sensors lists the device models mounted on the vehicle; default is
	// the paper's rig: RTL-SDR, USRP B200, spectrum analyzer.
	Sensors []sensor.Spec
	// Channels restricts the measured channels; default is every channel
	// with a registered transmitter.
	Channels []rfenv.Channel
	// Seed drives all measurement noise.
	Seed int64
	// Workers caps the route-point fan-out; 0 means GOMAXPROCS, 1
	// forces serial. Every point draws its measurement noise from an
	// RNG derived from (Seed, point sequence, sensor kind), so the
	// campaign is reproducible and identical for any worker count.
	Workers int
}

// Campaign is the collected dataset of a drive.
type Campaign struct {
	// Env is the environment the data was collected in.
	Env *rfenv.Environment
	// Route is the drive the data was collected on.
	Route *Route
	// Channels are the measured channels in ascending order.
	Channels []rfenv.Channel
	// Sensors are the mounted device kinds.
	Sensors []sensor.Kind

	readings map[campKey][]dataset.Reading
}

type campKey struct {
	ch   rfenv.Channel
	kind sensor.Kind
}

// Run executes the campaign: it calibrates one device per sensor model
// against the signal generator, then replays the route, capturing each
// channel with every sensor at every point.
func Run(cfg CampaignConfig) (*Campaign, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("wardrive: nil environment")
	}
	if cfg.Route == nil || len(cfg.Route.Points) == 0 {
		return nil, fmt.Errorf("wardrive: empty route")
	}
	specs := cfg.Sensors
	if len(specs) == 0 {
		specs = []sensor.Spec{sensor.RTLSDR(), sensor.USRPB200(), sensor.SpectrumAnalyzer()}
	}
	channels := cfg.Channels
	if len(channels) == 0 {
		channels = cfg.Env.Channels()
	}
	if len(channels) == 0 {
		return nil, fmt.Errorf("wardrive: environment has no transmitters")
	}

	// Each device gets its own calibration noise stream: observation
	// noise of one sensor must not perturb another's when
	// specifications change.
	devices := make([]*sensor.Device, len(specs))
	kinds := make([]sensor.Kind, len(specs))
	for i, spec := range specs {
		d := sensor.NewDevice(spec)
		rng := rand.New(rand.NewSource(cfg.Seed + 7919*int64(spec.Kind)))
		if err := sensor.CalibrateAndInstall(d, rng, sensor.CalibrationConfig{}); err != nil {
			return nil, fmt.Errorf("wardrive: calibrate %s: %w", spec.Kind, err)
		}
		devices[i] = d
		kinds[i] = spec.Kind
	}

	camp := &Campaign{
		Env:      cfg.Env,
		Route:    cfg.Route,
		Channels: channels,
		Sensors:  kinds,
		readings: make(map[campKey][]dataset.Reading, len(channels)*len(specs)),
	}
	for _, ch := range channels {
		for _, k := range kinds {
			camp.readings[campKey{ch, k}] = make([]dataset.Reading, len(cfg.Route.Points))
		}
	}

	// Route points are independent once calibration is done: the field
	// is a pure function of location and each point's observation noise
	// comes from an RNG derived from (seed, seq, sensor kind). Workers
	// write to disjoint seq slots of the preallocated per-store slices,
	// so the campaign is identical for any worker count and any
	// completion order.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfg.Route.Points) {
		workers = len(cfg.Route.Points)
	}
	errByWorker := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(cfg.Route.Points) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cfg.Route.Points) {
			hi = len(cfg.Route.Points)
		}
		if lo >= hi {
			break
		}
		run := func(w, lo, hi int) {
			defer wg.Done()
			errByWorker[w] = camp.observeRange(cfg.Seed, devices, kinds, lo, hi)
		}
		if workers == 1 {
			wg.Add(1)
			run(w, lo, hi)
		} else {
			wg.Add(1)
			go run(w, lo, hi)
		}
	}
	wg.Wait()
	for _, err := range errByWorker {
		if err != nil {
			return nil, err
		}
	}
	return camp, nil
}

// pointSeed derives the RNG seed for one (route point, device) pair with a
// splitmix64-style mix, decorrelating neighbouring points and sensors.
func pointSeed(seed int64, seq int, kind sensor.Kind) int64 {
	z := uint64(seed) ^ (uint64(seq)+1)*0x9E3779B97F4A7C15 ^ uint64(kind)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// observeRange captures every channel with every device at route points
// [lo, hi), writing into the preallocated reading slots.
func (c *Campaign) observeRange(seed int64, devices []*sensor.Device, kinds []sensor.Kind, lo, hi int) error {
	truth := make([]float64, len(c.Channels))
	rngs := make([]*rand.Rand, len(devices))
	for seq := lo; seq < hi; seq++ {
		loc := c.Route.Points[seq]
		// True field, computed once per location and shared by all
		// sensors: they ride the same vehicle.
		for ci, ch := range c.Channels {
			truth[ci] = c.Env.RSSDBm(ch, loc)
		}
		// One stream per device per point; within the point the
		// channels consume it in ascending order.
		for di, k := range kinds {
			rngs[di] = rand.New(rand.NewSource(pointSeed(seed, seq, k)))
		}
		for ci, ch := range c.Channels {
			// Strongest co-located power on any other channel, for
			// the leakage model.
			strongest := math.Inf(-1)
			for cj := range c.Channels {
				if cj != ci && truth[cj] > strongest {
					strongest = truth[cj]
				}
			}
			for di, dev := range devices {
				obs, err := dev.Observe(rngs[di], truth[ci], strongest)
				if err != nil {
					return fmt.Errorf("wardrive: observe %v %v: %w", ch, kinds[di], err)
				}
				sig, err := features.FromObservation(obs, dev.Calibration())
				if err != nil {
					return fmt.Errorf("wardrive: extract %v %v: %w", ch, kinds[di], err)
				}
				c.readings[campKey{ch, kinds[di]}][seq] = dataset.Reading{
					Seq:     seq,
					Loc:     loc,
					Channel: ch,
					Sensor:  kinds[di],
					Signal:  sig,
					TrueDBm: truth[ci],
				}
			}
		}
	}
	return nil
}

// Readings returns the readings for one channel and sensor, in drive order.
// The returned slice is shared; callers must not mutate it.
func (c *Campaign) Readings(ch rfenv.Channel, k sensor.Kind) []dataset.Reading {
	return c.readings[campKey{ch, k}]
}

// Labels runs Algorithm 1 over one channel/sensor's readings.
func (c *Campaign) Labels(ch rfenv.Channel, k sensor.Kind, cfg dataset.LabelConfig) ([]dataset.Label, error) {
	rs := c.Readings(ch, k)
	if len(rs) == 0 {
		return nil, fmt.Errorf("wardrive: no readings for %v/%v", ch, k)
	}
	return dataset.LabelReadings(rs, cfg)
}

// Size returns the number of readings per channel per sensor.
func (c *Campaign) Size() int {
	if c.Route == nil {
		return 0
	}
	return len(c.Route.Points)
}
