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
// append order and model rebuilds are deterministic. [RunClusterCrash]
// makes the same claim of a sharded topology that loses a primary.
//
// Every run boots its processes one way (stack.go) and stops each as
// SIGTERM stops the binary; a kill is that stop after a WAL flush, and
// fails the run if the stop wrote to the data dir.
package e2e

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/faultinject"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// A run's fixed shape: the channels it bootstraps, serves and scans, the
// bootstrap campaign size and the number of refresh → scan → upload duty
// cycles. The server trains the shipped model and gates uploads at its
// default α′, core.DefaultAlphaPrimeDB, which the run also applies
// before it uploads. The detector runs at its default α.
var runChannels = []rfenv.Channel{47}

const (
	runSamples = 500
	runCycles  = 6
)

// Config parameterizes one harness run: a small run on channel 47,
// fault-free unless a plan is set.
type Config struct {
	// Seed drives every simulation RNG in the run.
	Seed int64
	// ClientPlan injects faults into the client's transport; nil for a
	// clean client path.
	ClientPlan faultinject.Plan
	// ServerPlan injects faults in front of the server's handler; nil
	// for a clean server path.
	ServerPlan faultinject.Plan
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
		Area: env.Area, Samples: runSamples, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route,
		Sensors:  []sensor.Spec{sensor.RTLSDR()},
		Channels: runChannels,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	var all []dataset.Reading
	for _, ch := range runChannels {
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
	srv       *proc
	cl        *client.Client
	clientReg *telemetry.Registry
	clientTR  *faultinject.Transport
	serverMW  *faultinject.Middleware

	log             *strings.Builder
	cached          map[rfenv.Channel]bool
	uploaded        int
	errsWhileCached uint64
}

// newSession boots the server on st (durable when dataDir is set —
// recovering whatever the directory holds) behind the server plan's
// faults, and connects a fresh client through the client plan's. The
// client starts cold: a post-crash session re-downloads models exactly
// like a rebooted WSD fleet.
func newSession(st *stack, cfg Config, env *rfenv.Environment, log *strings.Builder, dataDir string) (*session, error) {
	var serverMW *faultinject.Middleware
	if cfg.ServerPlan != nil {
		serverMW = &faultinject.Middleware{Plan: cfg.ServerPlan}
	}
	srv, err := st.store(cluster.NodeConfig{DB: dbserver.Config{
		Constructor: dbserver.ShippedConstructor(),
		DataDir:     dataDir,
	}}, serverMW)
	if err != nil {
		return nil, err
	}
	cl, clientTR, err := connect(srv.ts.URL, cfg.Seed, cfg.ClientPlan)
	if err != nil {
		return nil, err
	}
	clientReg := telemetry.New()
	cl.SetMetrics(clientReg)
	return &session{
		cfg: cfg, env: env, srv: srv, cl: cl,
		clientReg: clientReg, clientTR: clientTR, serverMW: serverMW,
		log:    log,
		cached: make(map[rfenv.Channel]bool, len(runChannels)),
	}, nil
}

// runCycles drives duty cycles [from, to): refresh → scan → upload.
func (s *session) runCycles(ctx context.Context, from, to int) error {
	for cycle := from; cycle < to; cycle++ {
		for _, ch := range runChannels {
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
			if !dec.Converged || dec.CISpanDB > core.DefaultAlphaPrimeDB {
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
	versions := make(map[rfenv.Channel]int, len(runChannels))
	for _, ch := range runChannels {
		if err := untilOK(ctx, "final retrain", func() error {
			return s.cl.RequestRetrain(ctx, ch, sensor.KindRTLSDR)
		}); err != nil {
			return nil, err
		}
		model, err := refreshFresh(ctx, s.cl, ch, s.srv.db.ModelVersion(ch, sensor.KindRTLSDR))
		if err != nil {
			return nil, err
		}
		dec, err := scan(s.cfg, s.env, model, runCycles, ch)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(s.log, "final channel=%d label=%v converged=%t readings=%d ci=%.6f rss=%.6f cft=%.6f aft=%.6f\n",
			int(ch), dec.Label, dec.Converged, dec.ReadingsUsed,
			dec.CISpanDB, dec.Signal.RSSdBm, dec.Signal.CFTdB, dec.Signal.AFTdB)
		versions[ch] = s.srv.db.ModelVersion(ch, sensor.KindRTLSDR)
		fmt.Fprintf(s.log, "final channel=%d model_version=%d store=%d\n",
			int(ch), versions[ch], s.srv.db.StoreSize(ch, sensor.KindRTLSDR))
	}
	return versions, nil
}

// exportStores renders every store's CSV.
func (s *session) exportStores() ([]byte, error) {
	var stores []byte
	for _, ch := range runChannels {
		csv, err := s.srv.export(ch)
		if err != nil {
			return nil, err
		}
		if csv == nil {
			return nil, fmt.Errorf("e2e: no store for channel %d", int(ch))
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
		res.ClientFaults = addCounts(res.ClientFaults, s.clientTR.Counts())
	}
	if s.serverMW != nil {
		res.ServerFaults = addCounts(res.ServerFaults, s.serverMW.Counts())
	}
}

// addCounts adds counts to into, which it makes on first use.
func addCounts(into, counts map[faultinject.Kind]uint64) map[faultinject.Kind]uint64 {
	for k, v := range counts {
		if into == nil {
			into = make(map[faultinject.Kind]uint64)
		}
		into[k] += v
	}
	return into
}

// Run executes one harness run.
func Run(cfg Config) (*Result, error) {
	return run(cfg, CrashConfig{AfterCycle: runCycles})
}

// run is Run and RunCrash: one server incarnation bootstraps and serves
// the cycles up to crash.AfterCycle; if that is before the last, it is
// killed and a second, recovered from crash.DataDir alone, serves the
// rest. The last one serves the epilogue and exports its stores.
func run(cfg Config, crash CrashConfig) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), maxWall)
	defer cancel()
	env, bootstrap, err := buildWorld(cfg)
	if err != nil {
		return nil, err
	}
	var log strings.Builder
	res := &Result{}
	var st stack
	defer st.stop()
	sess, err := newSession(&st, cfg, env, &log, crash.DataDir)
	if err != nil {
		return nil, err
	}
	if err := sess.srv.db.Bootstrap(bootstrap); err != nil {
		return nil, err
	}
	if err := sess.runCycles(ctx, 0, crash.AfterCycle); err != nil {
		return nil, err
	}
	if crash.AfterCycle < runCycles { // the crash; the survivor has only the data dir
		wantGrid := verdicts(sess.srv.db.GeoIndex().Rebuild(ctx))
		if err := sess.srv.kill(); err != nil {
			return nil, err
		}
		sess.addCounters(res)
		if crash.TornTail {
			if err := tearSegmentTails(crash.DataDir); err != nil {
				return nil, err
			}
		}
		if sess, err = newSession(&st, cfg, env, &log, crash.DataDir); err != nil {
			return nil, fmt.Errorf("e2e: recovery: %w", err)
		}
		if !bytes.Equal(verdicts(sess.srv.db.GeoIndex().Snapshot()), wantGrid) {
			return nil, fmt.Errorf("e2e: the recovered server's grid differs from the pre-kill one")
		}
		if err := sess.runCycles(ctx, crash.AfterCycle, runCycles); err != nil {
			return nil, err
		}
	}
	versions, err := sess.epilogue(ctx)
	if err != nil {
		return nil, err
	}
	stores, err := sess.exportStores()
	if err != nil {
		return nil, err
	}
	sess.addCounters(res)
	res.DecisionLog, res.StoreCSV, res.ModelVersion = []byte(log.String()), stores, versions
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
	// The decisions are uploaded (uploadBatch) and the store keeps all
	// three features, so the device measures AFT too, which the model
	// does not read.
	wsd := &client.WSD{
		Radio:    radio,
		Models:   map[rfenv.Channel]*core.Model{ch: model},
		Detector: core.DetectorConfig{Features: features.SetLocationRSSCFTAFT},
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
