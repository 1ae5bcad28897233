// Package e2e is Waldo's deterministic end-to-end chaos harness. It runs
// the full pipeline in one process — war-driving campaign → central
// spectrum database → WSD client refresh/upload cycles → White Space
// Detector decisions — with fault-injection hooks on both sides of the
// HTTP wire (internal/faultinject), and renders the outcome in two
// byte-comparable artifacts: a decision log and the database's store
// contents.
//
// The harness's central claim, asserted by its tests, is the paper's §5
// resilience argument made executable: for any seeded fault schedule
// that eventually clears, the final detector decisions and the server's
// trusted stores are byte-identical to a fault-free run, and the client
// never surfaces an error while it holds a cached model. Determinism
// comes from three properties:
//
//   - every simulation RNG is derived from (Seed, cycle, channel), never
//     from a shared stream a retry could perturb;
//   - injected faults are state-safe (see faultinject): a faulted
//     request either never reaches the server or only mangles the
//     response body, so retries have exactly-once effect;
//   - the model is only retrained at the end of the run, after faults
//     have cleared, so stale-served descriptors are bit-equal to fresh
//     ones.
//
// [RunCrash] extends the same byte-identity claim to durability: it
// kills the server mid-campaign (optionally leaving a torn record at
// the tail of every WAL segment), restarts it from the data dir alone,
// and finishes the run — the decision log, store exports, and served
// model versions must still match the uninterrupted [Run]. That works
// because recovery (internal/wal) rebuilds each store in original
// append order and model rebuilds are deterministic.
package e2e

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/faultinject"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// Config parameterizes one harness run. The zero value (plus a Seed) is
// a small fault-free run on channel 47.
type Config struct {
	// Seed drives every simulation RNG in the run.
	Seed int64
	// Channels to bootstrap, serve, and scan; nil means {47}.
	Channels []rfenv.Channel
	// Samples is the bootstrap campaign size; 0 means 500.
	Samples int
	// Cycles is the number of refresh → scan → upload duty cycles;
	// 0 means 6.
	Cycles int
	// AlphaDB is the detector sensitivity; 0 means 0.5 dB.
	AlphaDB float64
	// AlphaPrimeDB is the server's upload acceptance criterion;
	// 0 means 1 dB.
	AlphaPrimeDB float64
	// ClientPlan injects faults into the client's transport; nil for a
	// clean client path.
	ClientPlan faultinject.Plan
	// ServerPlan injects faults in front of the server's handler; nil
	// for a clean server path.
	ServerPlan faultinject.Plan
	// Client overrides the WSD client's resilience parameters. The
	// harness defaults to fast chaos-friendly values (250 ms attempt
	// timeout, 1–10 ms backoff, 25 ms breaker cooldown) so fault-heavy
	// runs stay quick.
	Client client.Config
	// MaxWall bounds the whole run; 0 means 2 minutes. A fault
	// schedule that never clears fails the run at this deadline
	// instead of hanging.
	MaxWall time.Duration
}

func (c *Config) defaults() {
	if len(c.Channels) == 0 {
		c.Channels = []rfenv.Channel{47}
	}
	if c.Samples == 0 {
		c.Samples = 500
	}
	if c.Cycles == 0 {
		c.Cycles = 6
	}
	if c.AlphaDB == 0 {
		c.AlphaDB = 0.5
	}
	if c.AlphaPrimeDB == 0 {
		c.AlphaPrimeDB = 1.0
	}
	if c.Client.Timeout == 0 {
		c.Client.Timeout = 250 * time.Millisecond
	}
	if c.Client.Retry.BaseDelay == 0 {
		c.Client.Retry.BaseDelay = time.Millisecond
	}
	if c.Client.Retry.MaxDelay == 0 {
		c.Client.Retry.MaxDelay = 10 * time.Millisecond
	}
	if c.Client.Retry.Seed == 0 {
		c.Client.Retry.Seed = uint64(c.Seed)
	}
	if c.Client.Breaker.Cooldown == 0 {
		c.Client.Breaker.Cooldown = 25 * time.Millisecond
	}
	if c.MaxWall == 0 {
		c.MaxWall = 2 * time.Minute
	}
}

// Result is one run's byte-comparable outcome plus resilience counters.
type Result struct {
	// DecisionLog is a deterministic text rendering of every detector
	// decision in the run (per-cycle and final post-retrain): two runs
	// with equal Seed and equal eventual state are byte-identical.
	DecisionLog []byte
	// StoreCSV is the concatenated per-store CSV export of the
	// database's trusted readings after the run.
	StoreCSV []byte
	// ModelVersion is the final served model version per channel
	// (post-retrain; rendered into DecisionLog too).
	ModelVersion map[rfenv.Channel]int

	// Resilience counters for assertions: client retries, stale cache
	// serves, and injected fault tallies.
	Retries      uint64
	StaleServed  uint64
	ClientFaults map[faultinject.Kind]uint64
	ServerFaults map[faultinject.Kind]uint64
	// UploadsAccepted counts batches the database ingested.
	UploadsAccepted uint64
	// RefreshErrorsWhileCached counts refresh calls that surfaced an
	// error after the channel's model had already been downloaded once.
	// The client's stale-serve contract makes this always 0; the chaos
	// tests assert it.
	RefreshErrorsWhileCached uint64
}

// cycleSeed derives an independent RNG seed for one (cycle, channel)
// pair, so retries and fault timing can never perturb the simulation
// stream — the backbone of the byte-identical guarantee.
func cycleSeed(seed int64, cycle int, ch rfenv.Channel) int64 {
	x := uint64(seed)
	x = splitmix64(x ^ uint64(cycle+1)*0x9e3779b97f4a7c15)
	x = splitmix64(x ^ uint64(int(ch)+1)*0xbf58476d1ce4e5b9)
	return int64(x >> 1)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildWorld constructs the simulated world shared by every harness
// phase: the RF environment and the bootstrap campaign readings.
func buildWorld(cfg Config) (*rfenv.Environment, []dataset.Reading, error) {
	env, err := rfenv.BuildMetro(uint64(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{
		Area: env.Area, Samples: cfg.Samples, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route,
		Sensors:  []sensor.Spec{sensor.RTLSDR()},
		Channels: cfg.Channels,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	var all []dataset.Reading
	for _, ch := range cfg.Channels {
		all = append(all, camp.Readings(ch, sensor.KindRTLSDR)...)
	}
	return env, all, nil
}

// session is one server+client incarnation within a harness run. A plain
// run uses a single session; a crash run uses two over the same data
// dir, writing into one shared decision log.
type session struct {
	cfg       Config
	env       *rfenv.Environment
	srv       *dbserver.Server
	ts        *adminhttp.Server
	cl        *client.Client
	clientReg *telemetry.Registry
	clientTR  *faultinject.Transport
	serverMW  *faultinject.Middleware

	log             *strings.Builder
	cached          map[rfenv.Channel]bool
	uploaded        int
	errsWhileCached uint64
}

// newSession builds the server (durable when dataDir is set — recovering
// whatever the directory holds), wires the faulted HTTP path, and
// connects a fresh client. The client starts cold: a post-crash session
// re-downloads models exactly like a rebooted WSD fleet.
func newSession(cfg Config, env *rfenv.Environment, log *strings.Builder, dataDir string) (*session, error) {
	srv, err := dbserver.Open(dbserver.Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB, Seed: cfg.Seed},
		AlphaPrimeDB: cfg.AlphaPrimeDB,
		DataDir:      dataDir,
	})
	if err != nil {
		return nil, err
	}

	handler := srv.Handler()
	var serverMW *faultinject.Middleware
	if cfg.ServerPlan != nil {
		serverMW = &faultinject.Middleware{Plan: cfg.ServerPlan}
		handler = serverMW.Wrap(handler)
	}
	ts, err := adminhttp.Start("127.0.0.1:0", handler)
	if err != nil {
		srv.Close()
		return nil, err
	}
	var clientTR *faultinject.Transport
	ccfg := cfg.Client
	if cfg.ClientPlan != nil {
		clientTR = &faultinject.Transport{Plan: cfg.ClientPlan}
		ccfg.HTTPClient = &http.Client{Transport: clientTR}
	}
	clientReg := telemetry.New()
	cl, err := client.NewWithConfig(ts.URL, ccfg)
	if err != nil {
		ts.Close()
		return nil, err
	}
	cl.SetMetrics(clientReg)
	return &session{
		cfg: cfg, env: env, srv: srv, ts: ts, cl: cl,
		clientReg: clientReg, clientTR: clientTR, serverMW: serverMW,
		log:    log,
		cached: make(map[rfenv.Channel]bool, len(cfg.Channels)),
	}, nil
}

// runCycles drives duty cycles [from, to): refresh → scan → upload.
func (s *session) runCycles(ctx context.Context, from, to int) error {
	for cycle := from; cycle < to; cycle++ {
		for _, ch := range s.cfg.Channels {
			model, err := refreshUntil(ctx, s.cl, ch, s.cached, &s.errsWhileCached)
			if err != nil {
				return err
			}
			dec, err := scan(s.cfg, s.env, model, cycle, ch)
			if err != nil {
				return err
			}
			fmt.Fprintf(s.log, "cycle=%d channel=%d label=%v converged=%t readings=%d ci=%.6f rss=%.6f cft=%.6f aft=%.6f\n",
				cycle, int(ch), dec.Label, dec.Converged, dec.ReadingsUsed,
				dec.CISpanDB, dec.Signal.RSSdBm, dec.Signal.CFTdB, dec.Signal.AFTdB)
			if !dec.Converged || dec.CISpanDB > s.cfg.AlphaPrimeDB {
				continue
			}
			batch := uploadBatch(s.cfg, dec, cycle, ch)
			if err := untilOK(ctx, fmt.Sprintf("upload cycle %d ch %d", cycle, ch), func() error {
				return s.cl.Upload(ctx, batch)
			}); err != nil {
				return err
			}
			s.uploaded++
		}
	}
	return nil
}

// epilogue retrains every channel on the grown store and takes the final
// decisions the tests compare byte-for-byte. A fault schedule may still
// be mid-window here; retrains retry until they land (they have
// exactly-once effect — a faulted request never reaches the handler),
// and the final refresh loops until the client serves the post-retrain
// version rather than a stale cache hit, so the final decisions always
// come from the same model bytes.
func (s *session) epilogue(ctx context.Context) (map[rfenv.Channel]int, error) {
	versions := make(map[rfenv.Channel]int, len(s.cfg.Channels))
	for _, ch := range s.cfg.Channels {
		if err := untilOK(ctx, "final retrain", func() error {
			return s.cl.RequestRetrain(ctx, ch, sensor.KindRTLSDR)
		}); err != nil {
			return nil, err
		}
		model, err := refreshFresh(ctx, s.cl, ch, s.srv.ModelVersion(ch, sensor.KindRTLSDR))
		if err != nil {
			return nil, err
		}
		dec, err := scan(s.cfg, s.env, model, s.cfg.Cycles, ch)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(s.log, "final channel=%d label=%v converged=%t readings=%d ci=%.6f rss=%.6f cft=%.6f aft=%.6f\n",
			int(ch), dec.Label, dec.Converged, dec.ReadingsUsed,
			dec.CISpanDB, dec.Signal.RSSdBm, dec.Signal.CFTdB, dec.Signal.AFTdB)
		versions[ch] = s.srv.ModelVersion(ch, sensor.KindRTLSDR)
		fmt.Fprintf(s.log, "final channel=%d model_version=%d store=%d\n",
			int(ch), versions[ch], s.srv.StoreSize(ch, sensor.KindRTLSDR))
	}
	return versions, nil
}

// exportStores renders every store's CSV out-of-band of the chaos wire
// (a corrupt fault on an export response would mangle the CSV without
// signaling an error, so store inspection must not cross the faulted
// path).
func (s *session) exportStores() ([]byte, error) {
	var stores []byte
	for _, ch := range s.cfg.Channels {
		csv, err := export(s.srv.Handler(), ch)
		if err != nil {
			return nil, err
		}
		stores = append(stores, []byte(fmt.Sprintf("# store channel=%d\n", int(ch)))...)
		stores = append(stores, csv...)
	}
	return stores, nil
}

// addCounters folds this session's resilience counters into res.
func (s *session) addCounters(res *Result) {
	res.Retries += s.clientReg.Counter("waldo_client_retries_total", "").Value()
	res.StaleServed += s.clientReg.Counter("waldo_client_stale_served_total", "").Value()
	res.UploadsAccepted += uint64(s.uploaded)
	res.RefreshErrorsWhileCached += s.errsWhileCached
	if s.clientTR != nil {
		for k, v := range s.clientTR.Counts() {
			if res.ClientFaults == nil {
				res.ClientFaults = make(map[faultinject.Kind]uint64)
			}
			res.ClientFaults[k] += v
		}
	}
	if s.serverMW != nil {
		for k, v := range s.serverMW.Counts() {
			if res.ServerFaults == nil {
				res.ServerFaults = make(map[faultinject.Kind]uint64)
			}
			res.ServerFaults[k] += v
		}
	}
}

// Run executes one harness run.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.MaxWall)
	defer cancel()

	env, bootstrap, err := buildWorld(cfg)
	if err != nil {
		return nil, err
	}
	var log strings.Builder
	sess, err := newSession(cfg, env, &log, "")
	if err != nil {
		return nil, err
	}
	defer sess.ts.Close()
	if err := sess.srv.Bootstrap(bootstrap); err != nil {
		return nil, err
	}
	if err := sess.runCycles(ctx, 0, cfg.Cycles); err != nil {
		return nil, err
	}
	versions, err := sess.epilogue(ctx)
	if err != nil {
		return nil, err
	}
	stores, err := sess.exportStores()
	if err != nil {
		return nil, err
	}
	res := &Result{
		DecisionLog:  []byte(log.String()),
		StoreCSV:     stores,
		ModelVersion: versions,
	}
	sess.addCounters(res)
	return res, nil
}

// refreshUntil refreshes a channel's model until the client yields one:
// instantly when the client stale-serves or the wire is clean, and
// bounded by ctx when a fault schedule is still active. The client
// contract — never an error while a model is cached — makes the loop
// tight after the first success; errsWhileCached tallies every
// violation of that contract so tests can assert it stays zero.
func refreshUntil(ctx context.Context, cl *client.Client, ch rfenv.Channel,
	cached map[rfenv.Channel]bool, errsWhileCached *uint64) (*core.Model, error) {
	var model *core.Model
	err := untilOK(ctx, fmt.Sprintf("refresh model ch %d", int(ch)), func() error {
		m, _, err := cl.Refresh(ctx, ch, sensor.KindRTLSDR)
		if err != nil && cached[ch] {
			*errsWhileCached++
		}
		if err == nil {
			cached[ch] = true
		}
		model = m
		return err
	})
	return model, err
}

// untilOK retries f until it succeeds or ctx expires. Each attempt
// advances the fault schedules (they are request-indexed), so a clearing
// schedule always terminates the loop. The short sleep between failures
// keeps the loop from busy-spinning while the circuit breaker is
// rejecting in its cooldown window (rejections don't advance the
// schedules).
func untilOK(ctx context.Context, op string, f func() error) error {
	for {
		err := f()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("e2e: %s: %w (last error: %v)", op, ctx.Err(), err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// scan runs one stationary detection at a cycle-derived location with a
// cycle-derived RNG: identical in every run with the same seed,
// regardless of what the network did.
func scan(cfg Config, env *rfenv.Environment, model *core.Model, cycle int, ch rfenv.Channel) (core.Decision, error) {
	rng := rand.New(rand.NewSource(cycleSeed(cfg.Seed, cycle, ch)))
	dev := sensor.NewDevice(sensor.RTLSDR())
	if err := sensor.CalibrateAndInstall(dev, rng, sensor.CalibrationConfig{}); err != nil {
		return core.Decision{}, err
	}
	radio := &client.SimRadio{Env: env, Device: dev, Rng: rng}
	loc := env.Area.Center().Offset(float64((cycle*47+int(ch))%360), 1500+float64(cycle)*400)
	radio.SetPosition(loc)
	wsd := &client.WSD{
		Radio:    radio,
		Models:   map[rfenv.Channel]*core.Model{ch: model},
		Detector: core.DetectorConfig{AlphaDB: cfg.AlphaDB},
	}
	cs, err := wsd.SenseChannel(ch, loc)
	if err != nil {
		return core.Decision{}, err
	}
	return cs.Decision, nil
}

// uploadBatch packages a converged decision into a deterministic upload:
// the readings' sequence numbers and location are cycle-derived, and the
// signal is the decision's aggregate, so the server's store grows
// identically in every run that reaches the same decisions.
func uploadBatch(cfg Config, dec core.Decision, cycle int, ch rfenv.Channel) core.UploadBatch {
	loc := rfenv.MetroCenter.Offset(float64((cycle*47+int(ch))%360), 1500+float64(cycle)*400)
	batch := core.UploadBatch{CISpanDB: dec.CISpanDB}
	for i := 0; i < 4; i++ {
		batch.Readings = append(batch.Readings, dataset.Reading{
			Seq: cycle*1000 + i, Loc: loc, Channel: ch, Sensor: sensor.KindRTLSDR,
			Signal: dec.Signal,
		})
	}
	return batch
}

// refreshFresh refreshes until the client's cache holds exactly the
// wanted model version. Mid-outage refreshes may legitimately
// stale-serve an older descriptor; the epilogue needs the post-retrain
// one, so it keeps driving the schedule forward (each iteration issues
// real requests) until a clean fetch lands.
func refreshFresh(ctx context.Context, cl *client.Client, ch rfenv.Channel, want int) (*core.Model, error) {
	wantV := strconv.Itoa(want)
	var model *core.Model
	err := untilOK(ctx, fmt.Sprintf("final refresh ch %d", int(ch)), func() error {
		m, _, err := cl.Refresh(ctx, ch, sensor.KindRTLSDR)
		if err != nil {
			return err
		}
		if got := cl.CachedModelVersion(ch, sensor.KindRTLSDR); got != wantV {
			return fmt.Errorf("stale model v%s, want v%s", got, wantV)
		}
		model = m
		return nil
	})
	return model, err
}

// export renders one store's CSV by invoking the server handler
// directly, bypassing any fault middleware on the listening socket.
func export(h http.Handler, ch rfenv.Channel) ([]byte, error) {
	url := fmt.Sprintf("/v1/export?channel=%d&sensor=%d", int(ch), int(sensor.KindRTLSDR))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("e2e: export: %d %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}
