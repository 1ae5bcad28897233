// Command waldo-loadgen is the repo's end-to-end performance harness: it
// bootstraps a central spectrum database from a simulated war-driving
// campaign, drives N concurrent White Space Device clients through
// scan/upload cycles against the server's real HTTP API, and prints a
// throughput and latency report sourced from the internal/telemetry
// registries on both sides of the wire.
//
// Usage:
//
//	waldo-loadgen -clients 16 -duration 10s -channels 46,47
//
// The server runs in-process (an httptest listener on a real socket), so
// a single run measures the full stack — HTTP routing, model descriptor
// encoding/decoding, α′ upload gating, updater ingestion — without any
// external setup. Add -metrics to dump the raw Prometheus exposition
// after the report.
//
// The default drive mode is closed-loop: each client starts its next
// cycle only when the previous one finishes, so a slowing server quietly
// lowers the offered load and hides its own queueing delay (coordinated
// omission). -rate switches to an open-loop schedule: cycles are planned
// at the fixed offered rate, latency is measured from each cycle's
// scheduled start, and sends the client pool cannot absorb are reported
// as dropped/late instead of silently stretching the plan:
//
//	waldo-loadgen -clients 16 -rate 500 -duration 10s
//
// -faults replays a seeded fault schedule (internal/faultinject) on
// every client's transport, exercising the resilience layer under load:
//
//	waldo-loadgen -clients 8 -duration 5s -faults 'drop=0.05,error=0.05,delay=0.1,latency=2ms'
//
// Recognized keys: drop, error, corrupt, truncate, delay, hang
// (per-request probabilities), latency (duration for delay faults),
// status (code for error faults), window (requests before the schedule
// clears; 0 = never), and seed (defaults to -seed). The report then
// includes injected-fault counts next to the client retry/stale/breaker
// metrics.
//
// -trajectory switches the drive loop from scan/upload cycles to the
// spatiotemporal query surface: each client follows a drifting
// trajectory through the metro, querying GET /v1/availability at its
// position and POST /v1/route for its look-ahead polyline every cycle:
//
//	waldo-loadgen -clients 16 -trajectory -rate 500 -duration 10s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/faultinject"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wardrive"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waldo-loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	clients     int
	rate        float64
	duration    time.Duration
	channels    []rfenv.Channel
	samples     int
	clusterK    int
	alphaDB     float64
	alphaPrime  float64
	uploadBatch int
	batch       int
	seed        int64
	dumpMetrics bool
	jsonPath    string
	faults      *faultinject.Schedule
	gateway     string
	cellDeg     float64
	adminAddr   string
	trajectory  bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("waldo-loadgen", flag.ContinueOnError)
	clients := fs.Int("clients", 8, "concurrent WSD clients")
	rate := fs.Float64("rate", 0, "open-loop offered scan-cycle rate per second across all clients (0 = closed loop)")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	channelsStr := fs.String("channels", "46,47", "comma-separated TV channels")
	samples := fs.Int("samples", 600, "bootstrap campaign size per channel")
	clusterK := fs.Int("clusters", 3, "localities per model")
	alpha := fs.Float64("alpha", 0.5, "detector sensitivity α (dB)")
	alphaPrime := fs.Float64("alpha-prime", 1.0, "upload acceptance CI span α′ (dB)")
	uploadBatch := fs.Int("upload-batch", 4, "readings per upload")
	batch := fs.Int("batch", 0, "buffer readings client-side and ship binary batch frames of this size (0 = per-scan JSON uploads)")
	seed := fs.Int64("seed", 42, "simulation seed")
	dump := fs.Bool("metrics", false, "dump the server's Prometheus exposition after the report")
	jsonPath := fs.String("json", "", "also write the report as JSON to this path ('-' for stdout)")
	faults := fs.String("faults", "", "seeded fault schedule on the client transport, e.g. 'drop=0.05,error=0.05,delay=0.1,latency=2ms' (see package doc)")
	gateway := fs.String("gateway", "", "drive an external cluster gateway at this base URL instead of the in-process server (see waldo-gateway)")
	cellDeg := fs.Float64("cell-deg", cluster.DefaultCellDeg, "geo-cell quantum for grouping -gateway bootstrap uploads (match the gateway's -cell-deg)")
	adminAddr := fs.String("admin-addr", "", "opt-in admin listener for the loadgen process (pprof, /metrics, /debug/traces); empty = disabled")
	trajectory := fs.Bool("trajectory", false, "drive availability/route queries along per-client trajectories instead of scan/upload cycles")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		clients:     *clients,
		rate:        *rate,
		duration:    *duration,
		samples:     *samples,
		clusterK:    *clusterK,
		alphaDB:     *alpha,
		alphaPrime:  *alphaPrime,
		uploadBatch: *uploadBatch,
		batch:       *batch,
		seed:        *seed,
		dumpMetrics: *dump,
		jsonPath:    *jsonPath,
		gateway:     strings.TrimRight(*gateway, "/"),
		cellDeg:     *cellDeg,
		adminAddr:   *adminAddr,
		trajectory:  *trajectory,
	}
	if cfg.clients < 1 {
		return config{}, fmt.Errorf("-clients must be ≥ 1")
	}
	for _, part := range strings.Split(*channelsStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return config{}, fmt.Errorf("bad channel %q", part)
		}
		ch := rfenv.Channel(n)
		if !ch.Valid() {
			return config{}, fmt.Errorf("channel %d outside TV band", n)
		}
		cfg.channels = append(cfg.channels, ch)
	}
	if len(cfg.channels) == 0 {
		return config{}, fmt.Errorf("no channels")
	}
	if *faults != "" {
		sched, err := parseFaults(*faults, uint64(cfg.seed))
		if err != nil {
			return config{}, err
		}
		cfg.faults = sched
	}
	return cfg, nil
}

// parseFaults builds a faultinject.Schedule from "key=value,..." pairs.
func parseFaults(spec string, defaultSeed uint64) (*faultinject.Schedule, error) {
	s := &faultinject.Schedule{Seed: defaultSeed}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -faults entry %q (want key=value)", part)
		}
		prob := func(dst *float64) error {
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("bad -faults probability %q=%q", k, v)
			}
			*dst = p
			return nil
		}
		var err error
		switch k {
		case "drop":
			err = prob(&s.DropP)
		case "error":
			err = prob(&s.ErrorP)
		case "corrupt":
			err = prob(&s.CorruptP)
		case "truncate":
			err = prob(&s.TruncateP)
		case "delay":
			err = prob(&s.DelayP)
		case "hang":
			err = prob(&s.HangP)
		case "latency":
			s.Latency, err = time.ParseDuration(v)
		case "status":
			s.Status, err = strconv.Atoi(v)
		case "window":
			s.Window, err = strconv.ParseUint(v, 10, 64)
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return nil, fmt.Errorf("unknown -faults key %q", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	// --- Bootstrap: simulated campaign → trained spectrum database. ---
	start := time.Now()
	env, err := rfenv.BuildMetro(uint64(cfg.seed))
	if err != nil {
		return err
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{
		Area: env.Area, Samples: cfg.samples, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	rtl, err := sensor.SpecFor(sensor.KindRTLSDR)
	if err != nil {
		return err
	}
	campaign, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route,
		Sensors:  []sensor.Spec{rtl},
		Channels: cfg.channels,
		Seed:     cfg.seed,
	})
	if err != nil {
		return err
	}
	var all []dataset.Reading
	for _, ch := range cfg.channels {
		all = append(all, campaign.Readings(ch, sensor.KindRTLSDR)...)
	}
	// In gateway mode the cluster is external: bootstrap travels through
	// the gateway's routed upload path so each (channel, cell) group lands
	// on its owning shard, and models come from a broadcast retrain.
	var srv *dbserver.Server
	var baseURL string
	if cfg.gateway != "" {
		if err := bootstrapGateway(cfg, all); err != nil {
			return fmt.Errorf("gateway bootstrap: %w", err)
		}
		baseURL = cfg.gateway
	} else {
		srv = dbserver.New(dbserver.Config{
			Constructor:  core.ConstructorConfig{ClusterK: cfg.clusterK, Seed: cfg.seed},
			AlphaPrimeDB: cfg.alphaPrime,
		})
		if err := srv.Bootstrap(all); err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		baseURL = ts.URL
	}
	// Seed locations give gateway-mode clients a routing hint whose shard
	// is guaranteed to hold data for the channel.
	seedLocs := map[rfenv.Channel]geo.Point{}
	for _, r := range all {
		if _, ok := seedLocs[r.Channel]; !ok {
			seedLocs[r.Channel] = r.Loc
		}
	}
	fmt.Printf("bootstrap: %d readings across %d channels, models trained in %v\n",
		len(all), len(cfg.channels), time.Since(start).Round(time.Millisecond))
	if cfg.gateway != "" {
		fmt.Printf("server:    %s (external gateway)\n", baseURL)
	} else {
		fmt.Printf("server:    %s (in-process)\n", baseURL)
	}
	if cfg.rate > 0 {
		fmt.Printf("load:      open-loop %.1f cycles/s over %d clients × %v, α=%.2f dB, α′=%.2f dB\n",
			cfg.rate, cfg.clients, cfg.duration, cfg.alphaDB, cfg.alphaPrime)
	} else {
		fmt.Printf("load:      %d clients × %v, α=%.2f dB, α′=%.2f dB\n",
			cfg.clients, cfg.duration, cfg.alphaDB, cfg.alphaPrime)
	}
	if cfg.batch > 0 {
		fmt.Printf("batching:  binary frames, flush at %d readings\n", cfg.batch)
	}
	if cfg.trajectory {
		fmt.Println("mode:      trajectory (availability + route queries)")
	}
	// One shared transport replays the seeded schedule across all
	// clients: request sequence numbers form a single stream, so the
	// same -faults spec injects the same pattern run over run.
	var faultTR *faultinject.Transport
	if cfg.faults != nil {
		faultTR = &faultinject.Transport{Plan: *cfg.faults}
		fmt.Printf("faults:    drop=%.2f error=%.2f corrupt=%.2f truncate=%.2f delay=%.2f hang=%.2f seed=%d window=%d\n",
			cfg.faults.DropP, cfg.faults.ErrorP, cfg.faults.CorruptP, cfg.faults.TruncateP,
			cfg.faults.DelayP, cfg.faults.HangP, cfg.faults.Seed, cfg.faults.Window)
	}
	fmt.Println()

	// --- Load: N concurrent WSD clients, closed- or open-loop. ---
	clientReg := telemetry.New()
	if cfg.adminAddr != "" {
		// pprof here profiles the loadgen process itself; the registry
		// served is the in-process server's when one exists (it carries
		// the flight recorder), the client-side one in gateway mode.
		adminReg := clientReg
		if srv != nil {
			adminReg = srv.Metrics()
		}
		if admin := adminhttp.Serve(cfg.adminAddr, adminReg, func(err error) {
			fmt.Fprintf(os.Stderr, "admin listener: %v\n", err)
		}); admin != nil {
			defer admin.Close()
			fmt.Printf("admin:     pprof on %s\n", cfg.adminAddr)
		}
	}
	scansTotal := clientReg.Counter("loadgen_scans_total", "Completed channel scans.")
	var workerErr atomic.Value // first fatal worker error
	deadline := time.Now().Add(cfg.duration)
	var olStats *openLoopStats
	if cfg.rate > 0 {
		stats, err := runOpenLoop(cfg, env, baseURL, faultTR, clientReg, scansTotal, seedLocs, deadline, &workerErr)
		if err != nil {
			return err
		}
		olStats = &stats
	} else {
		var wg sync.WaitGroup
		for w := 0; w < cfg.clients; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				if err := driveClient(cfg, env, baseURL, faultTR, clientReg, scansTotal, seedLocs, deadline, worker); err != nil {
					workerErr.CompareAndSwap(nil, err)
				}
			}(w)
		}
		wg.Wait()
	}
	if err, ok := workerErr.Load().(error); ok && err != nil {
		return err
	}

	var serverReg *telemetry.Registry
	if srv != nil {
		serverReg = srv.Metrics()
	}
	if err := report(cfg, serverReg, clientReg, olStats); err != nil {
		return err
	}
	if faultTR != nil {
		fmt.Printf("\nfault injection: %d requests, %d faulted (%v)\n",
			faultTR.Requests(), faultTR.Injected(), faultCountString(faultTR.Counts()))
		fmt.Printf("resilience:      %d retries, %d stale serves, %d breaker rejections\n",
			clientReg.Counter("waldo_client_retries_total", "").Value(),
			clientReg.Counter("waldo_client_stale_served_total", "").Value(),
			clientReg.Counter("waldo_client_breaker_rejected_total", "").Value())
	}
	if cfg.dumpMetrics {
		fmt.Println("\n--- /metrics ---")
		if srv != nil {
			if err := srv.Metrics().WritePrometheus(os.Stdout); err != nil {
				return err
			}
		} else if err := dumpURL(cfg.gateway + "/metrics"); err != nil {
			return err
		}
	}
	return nil
}

// bootstrapGateway pushes the campaign through the gateway's routed
// upload path, one batch per (channel, cell) so every batch lands whole
// on its owning shard, then broadcast-retrains each channel.
func bootstrapGateway(cfg config, all []dataset.Reading) error {
	groups := map[cluster.RouteKey][]dataset.Reading{}
	for _, r := range all {
		k := cluster.RouteKey{Channel: r.Channel, Cell: cluster.CellOf(r.Loc, cfg.cellDeg)}
		groups[k] = append(groups[k], r)
	}
	httpc := &http.Client{Timeout: 30 * time.Second}
	for _, rs := range groups {
		up := dbserver.UploadJSON{CISpanDB: 0.2}
		for _, r := range rs {
			up.Readings = append(up.Readings, dbserver.FromReading(r))
		}
		body, err := json.Marshal(up)
		if err != nil {
			return err
		}
		resp, err := httpc.Post(cfg.gateway+"/v1/readings", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("bootstrap upload = %s", resp.Status)
		}
	}
	for _, ch := range cfg.channels {
		url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d", cfg.gateway, int(ch), int(sensor.KindRTLSDR))
		resp, err := httpc.Post(url, "", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("broadcast retrain ch%d = %s", int(ch), resp.Status)
		}
	}
	fmt.Printf("bootstrap: %d routed batches uploaded via gateway\n", len(groups))
	return nil
}

// dumpURL copies a GET response body to stdout.
func dumpURL(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// wsdWorker is one simulated WSD: its radio, client, detector, and
// optional upload buffer, with the per-cycle scan/upload loop factored
// out so both drive modes (closed-loop driveClient, open-loop
// runOpenLoop) share it.
type wsdWorker struct {
	cfg         config
	rng         *rand.Rand
	radio       *client.SimRadio
	c           *client.Client
	wsd         *client.WSD
	buf         *client.UploadBuffer
	scans       *telemetry.Counter
	faulty      bool
	gatewayMode bool
	center      geo.Point

	// Trajectory mode (-trajectory): the client's current position and
	// heading, plus the query-latency histograms the report reads.
	pos       geo.Point
	heading   float64
	availHist *telemetry.Histogram
	routeHist *telemetry.Histogram
}

// newWSDWorker calibrates a simulated radio and downloads the initial
// models. deadline bounds the fault-mode retry of the initial fetch.
func newWSDWorker(cfg config, env *rfenv.Environment, baseURL string, faultTR *faultinject.Transport,
	reg *telemetry.Registry, scans *telemetry.Counter, seedLocs map[rfenv.Channel]geo.Point,
	deadline time.Time, worker int) (*wsdWorker, error) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(worker)*7919))
	spec, err := sensor.SpecFor(sensor.KindRTLSDR)
	if err != nil {
		return nil, err
	}
	dev := sensor.NewDevice(spec)
	if err := sensor.CalibrateAndInstall(dev, rng, sensor.CalibrationConfig{}); err != nil {
		return nil, err
	}
	radio := &client.SimRadio{Env: env, Device: dev, Rng: rng}

	var httpc *http.Client
	if faultTR != nil {
		httpc = &http.Client{Transport: faultTR}
	}
	c, err := client.NewWithConfig(baseURL, client.Config{
		HTTPClient: httpc,
		Retry:      client.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Seed: uint64(cfg.seed) + uint64(worker)},
		Breaker:    client.BreakerPolicy{Cooldown: 100 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	c.SetMetrics(reg)
	gatewayMode := cfg.gateway != ""
	models := make(map[rfenv.Channel]*core.Model, len(cfg.channels))
	// Trajectory mode never senses, so it needs no models — its load is
	// pure availability-grid queries.
	if !cfg.trajectory {
		for _, ch := range cfg.channels {
			if gatewayMode {
				// Hint at a location that bootstrapped this channel, so the
				// gateway routes the first fetch to a shard that has a model.
				c.SetLocationHint(seedLocs[ch])
			}
			m, _, err := c.Model(ch, sensor.KindRTLSDR)
			for err != nil && faultTR != nil && time.Now().Before(deadline) {
				m, _, err = c.Model(ch, sensor.KindRTLSDR)
			}
			if err != nil {
				return nil, err
			}
			models[ch] = m
		}
	}
	w := &wsdWorker{
		cfg:   cfg,
		rng:   rng,
		radio: radio,
		c:     c,
		wsd: &client.WSD{
			Radio:    radio,
			Models:   models,
			Detector: core.DetectorConfig{AlphaDB: cfg.alphaDB, Metrics: reg},
		},
		scans:       scans,
		faulty:      faultTR != nil,
		gatewayMode: gatewayMode,
		center:      env.Area.Center(),
	}
	if cfg.trajectory {
		w.pos = w.center.Offset(rng.Float64()*360, rng.Float64()*8000)
		w.heading = rng.Float64() * 360
		w.availHist = reg.Histogram("loadgen_availability_seconds",
			"GET /v1/availability round-trip latency (trajectory mode).", nil)
		w.routeHist = reg.Histogram("loadgen_route_seconds",
			"POST /v1/route round-trip latency (trajectory mode).", nil)
	}
	// -batch mode: readings accumulate client-side and ship as binary
	// frames — the tentpole ingest path. The buffer's own flush metrics
	// land in the shared client registry for the report.
	if cfg.batch > 0 {
		w.buf = c.NewUploadBuffer(client.BufferConfig{FlushSize: cfg.batch})
	}
	return w, nil
}

// close releases the upload buffer (final flush; late failures are
// expected traffic).
func (w *wsdWorker) close() {
	if w.buf != nil {
		w.buf.Close() //nolint:errcheck // late flush failures are expected traffic
	}
}

// cycle runs one load round: a scan/upload cycle by default, a
// trajectory availability/route query round under -trajectory.
func (w *wsdWorker) cycle() error {
	if w.cfg.trajectory {
		return w.trajectoryCycle()
	}
	return w.scanCycle()
}

// trajectoryCycle is one -trajectory round: query availability at the
// current position, plan the look-ahead route, then advance along a
// drifting heading. A trajectory straying past the metro's edge turns
// back toward the center, so the fleet keeps querying surveyed cells.
func (w *wsdWorker) trajectoryCycle() error {
	ch := w.cfg.channels[w.rng.Intn(len(w.cfg.channels))]
	start := time.Now()
	if _, err := w.c.Availability(client.AvailabilityQuery{Loc: w.pos, Channels: []rfenv.Channel{ch}}); err != nil {
		if w.faulty {
			return nil // outage past the retry budget
		}
		return err
	}
	w.availHist.Observe(time.Since(start).Seconds())

	lookahead := []geo.Point{
		w.pos,
		w.pos.Offset(w.heading, 2000),
		w.pos.Offset(w.heading+30*(w.rng.Float64()-0.5), 4000),
	}
	start = time.Now()
	if _, err := w.c.PlanRoute(lookahead, client.RouteOptions{HorizonS: 600, StepM: 500}); err != nil {
		if w.faulty {
			return nil
		}
		return err
	}
	w.routeHist.Observe(time.Since(start).Seconds())
	w.scans.Inc() // one completed query round, for the throughput report

	w.heading += 20 * (w.rng.Float64() - 0.5)
	w.pos = w.pos.Offset(w.heading, 1000)
	if w.pos.DistanceM(w.center) > 12000 {
		w.heading = w.pos.BearingDeg(w.center)
	}
	return nil
}

// scanCycle runs one scan/upload round: re-fetch the model through the
// cache, sense a random metro location, upload the decision's readings.
// Transient outages (faults, unowned cells) return nil — the resilience
// layer absorbs them; only simulation failures are fatal.
func (w *wsdWorker) scanCycle() error {
	// Re-fetch through the cache each cycle: this is the Local Model
	// Parameters Updater path, and it keeps /v1/model load realistic
	// (cache hits locally, occasional misses after invalidation).
	ch := w.cfg.channels[w.rng.Intn(len(w.cfg.channels))]
	loc := w.center.Offset(w.rng.Float64()*360, w.rng.Float64()*12000)
	if w.gatewayMode {
		// The hint routes model fetches to the shard owning this
		// position's cell — the same shard the upload below hits.
		w.c.SetLocationHint(loc)
	}
	if w.rng.Float64() < 0.02 {
		w.c.Invalidate(ch, sensor.KindRTLSDR)
	}
	if _, _, err := w.c.Model(ch, sensor.KindRTLSDR); err != nil {
		if w.faulty || w.gatewayMode {
			return nil // outage or unowned cell past the retry budget
		}
		return err
	}

	w.radio.SetPosition(loc)
	cs, err := w.wsd.SenseChannel(ch, loc)
	if err != nil {
		return err
	}
	w.scans.Inc()

	// Upload the decision's readings; the server's α′ gate decides.
	batch := core.UploadBatch{CISpanDB: cs.Decision.CISpanDB}
	for i := 0; i < w.cfg.uploadBatch; i++ {
		batch.Readings = append(batch.Readings, dataset.Reading{
			Seq: i, Loc: loc, Channel: ch, Sensor: sensor.KindRTLSDR,
			Signal: cs.Decision.Signal,
		})
	}
	// Rejections (non-converged scans above α′) are expected traffic.
	if w.buf != nil {
		// A buffered frame is judged by its widest contributor's CI
		// span, so pre-filter what a lone upload would have let the
		// server reject — one bad scan must not poison a whole frame.
		if batch.CISpanDB <= w.cfg.alphaPrime {
			_ = w.buf.Add(batch)
		}
	} else {
		_ = w.c.Upload(batch)
	}
	return nil
}

// driveClient runs one WSD's closed loop until the deadline. Closed
// loop means the offered load tracks the server's speed — fine for
// soak/fault runs; use -rate for latency measurements.
func driveClient(cfg config, env *rfenv.Environment, baseURL string, faultTR *faultinject.Transport,
	reg *telemetry.Registry, scans *telemetry.Counter, seedLocs map[rfenv.Channel]geo.Point,
	deadline time.Time, worker int) error {
	w, err := newWSDWorker(cfg, env, baseURL, faultTR, reg, scans, seedLocs, deadline, worker)
	if err != nil {
		return err
	}
	defer w.close()
	for time.Now().Before(deadline) {
		if err := w.cycle(); err != nil {
			return err
		}
	}
	return nil
}

// runOpenLoop drives the worker pool at a fixed offered cycle rate
// through the coordinated-omission-safe scheduler: send times are
// planned in advance, cycle latency is measured from the *scheduled*
// send, and sends the pool cannot absorb are counted (dropped/late)
// instead of silently stretching the schedule — the closed-loop mode's
// bias. Each worker index owns one wsdWorker, so worker state needs no
// locking.
func runOpenLoop(cfg config, env *rfenv.Environment, baseURL string, faultTR *faultinject.Transport,
	reg *telemetry.Registry, scans *telemetry.Counter, seedLocs map[rfenv.Channel]geo.Point,
	deadline time.Time, workerErr *atomic.Value) (openLoopStats, error) {
	workers := make([]*wsdWorker, cfg.clients)
	for i := range workers {
		w, err := newWSDWorker(cfg, env, baseURL, faultTR, reg, scans, seedLocs, deadline, i)
		if err != nil {
			return openLoopStats{}, err
		}
		workers[i] = w
		defer w.close()
	}
	cycleHist := reg.Histogram("loadgen_cycle_seconds",
		"Scan/upload cycle latency measured from the scheduled send (open-loop mode).", nil)
	stats := openLoop(context.Background(), openLoopConfig{
		Rate: cfg.rate, Workers: cfg.clients, Duration: cfg.duration,
	}, func(worker int, scheduled time.Time) {
		if err := workers[worker].cycle(); err != nil {
			workerErr.CompareAndSwap(nil, err)
			return
		}
		cycleHist.Observe(time.Since(scheduled).Seconds())
	})
	return stats, nil
}

// latencyJSON is one histogram's quantile row in the -json report.
type latencyJSON struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	P999  float64 `json:"p999_seconds"`
	Max   float64 `json:"max_seconds"`
}

func latencyRow(name string, s telemetry.HistogramSnapshot) latencyJSON {
	return latencyJSON{
		Name: name, Count: s.Count,
		P50: s.Quantile(0.50), P95: s.Quantile(0.95),
		P99: s.Quantile(0.99), P999: s.Quantile(0.999), Max: s.Max,
	}
}

// reportJSON is the machine-readable run summary (-json).
type reportJSON struct {
	Clients         int     `json:"clients"`
	DurationSeconds float64 `json:"duration_seconds"`
	BatchSize       int     `json:"batch_size,omitempty"`
	// Open-loop (-rate) schedule accounting: dropped sends never
	// reached the server; late sends started behind schedule (their
	// latency still includes the wait).
	OfferedCyclesPerSec float64       `json:"offered_cycles_per_sec,omitempty"`
	ScheduledSends      uint64        `json:"scheduled_sends,omitempty"`
	DroppedSends        uint64        `json:"dropped_sends,omitempty"`
	LateSends           uint64        `json:"late_sends,omitempty"`
	Scans               uint64        `json:"scans"`
	ScansPerSec         float64       `json:"scans_per_sec"`
	UploadsAccepted     uint64        `json:"uploads_accepted"`
	UploadsRejected     uint64        `json:"uploads_rejected"`
	FlushOK             uint64        `json:"flush_ok,omitempty"`
	FlushFailed         uint64        `json:"flush_failed,omitempty"`
	FlushReadings       uint64        `json:"flush_readings,omitempty"`
	ClientLatency       []latencyJSON `json:"client_latency"`
	ServerLatency       []latencyJSON `json:"server_latency,omitempty"`
}

// report prints throughput and latency quantiles from both registries,
// and mirrors them to -json when asked. ol carries the open-loop
// schedule accounting (nil in closed-loop mode).
func report(cfg config, server, clients *telemetry.Registry, ol *openLoopStats) error {
	scans := clients.Counter("loadgen_scans_total", "").Value()
	secs := cfg.duration.Seconds()
	out := reportJSON{
		Clients: cfg.clients, DurationSeconds: secs, BatchSize: cfg.batch,
		Scans: scans, ScansPerSec: float64(scans) / secs,
	}

	fmt.Printf("=== load report (%d clients, %v) ===\n", cfg.clients, cfg.duration)
	fmt.Printf("scans:     %d total, %.1f scans/s\n", scans, float64(scans)/secs)
	if ol != nil {
		out.OfferedCyclesPerSec = cfg.rate
		out.ScheduledSends, out.DroppedSends, out.LateSends = ol.Scheduled, ol.Dropped, ol.Late
		fmt.Printf("open-loop: %d sends scheduled at %.1f/s, %d dropped (backlog full), %d late starts\n",
			ol.Scheduled, cfg.rate, ol.Dropped, ol.Late)
	}

	decTotal := uint64(0)
	for _, label := range []string{"safe", "not-safe"} {
		for _, conv := range []string{"true", "false"} {
			decTotal += clients.Counter("waldo_detector_decisions_total", "",
				"label", label, "converged", conv).Value()
		}
	}
	conv := clients.Counter("waldo_detector_decisions_total", "", "label", "safe", "converged", "true").Value() +
		clients.Counter("waldo_detector_decisions_total", "", "label", "not-safe", "converged", "true").Value()
	if decTotal > 0 {
		fmt.Printf("decisions: %d (%.1f%% converged)\n", decTotal, 100*float64(conv)/float64(decTotal))
	}
	acc := clients.Counter("waldo_client_uploads_total", "", "outcome", "accepted").Value()
	rej := clients.Counter("waldo_client_uploads_total", "", "outcome", "failed").Value()
	fmt.Printf("uploads:   %d accepted, %d rejected (α′ gate)\n", acc, rej)
	out.UploadsAccepted, out.UploadsRejected = acc, rej
	if cfg.batch > 0 {
		out.FlushOK = clients.Counter("waldo_client_flush_total", "", "outcome", "ok").Value()
		out.FlushFailed = clients.Counter("waldo_client_flush_total", "", "outcome", "failed").Value()
		out.FlushReadings = clients.Counter("waldo_client_flush_readings_total", "").Value()
		fmt.Printf("flushes:   %d ok, %d failed, %d readings shipped in binary frames\n",
			out.FlushOK, out.FlushFailed, out.FlushReadings)
	}
	hits := clients.Counter("waldo_client_model_cache_total", "", "result", "hit").Value()
	misses := clients.Counter("waldo_client_model_cache_total", "", "result", "miss").Value()
	if hits+misses > 0 {
		fmt.Printf("cache:     %.1f%% model-cache hit rate (%d lookups)\n",
			100*float64(hits)/float64(hits+misses), hits+misses)
	}

	fmt.Println("\nclient-side latency:")
	clientRow := func(display, name string, s telemetry.HistogramSnapshot) {
		printLatency(display, s)
		if s.Count > 0 {
			out.ClientLatency = append(out.ClientLatency, latencyRow(name, s))
		}
	}
	clientRow("model fetch (miss)", "model_fetch", clients.Histogram("waldo_client_model_fetch_seconds", "", nil).Snapshot())
	clientRow("upload round-trip ", "upload", clients.Histogram("waldo_client_upload_seconds", "", nil).Snapshot())
	if cfg.trajectory {
		clientRow("availability query", "availability", clients.Histogram("loadgen_availability_seconds", "", nil).Snapshot())
		clientRow("route plan        ", "route", clients.Histogram("loadgen_route_seconds", "", nil).Snapshot())
	}
	if cfg.batch > 0 {
		clientRow("buffer flush      ", "flush", clients.Histogram("waldo_client_flush_seconds", "", nil).Snapshot())
	}
	if ol != nil {
		clientRow("cycle (from sched)", "cycle", clients.Histogram("loadgen_cycle_seconds", "", nil).Snapshot())
	}

	if server == nil {
		fmt.Println("\n(server-side registries live in the external cluster; scrape the gateway and shards' /metrics)")
		return writeReportJSON(cfg.jsonPath, out)
	}
	fmt.Println("\nserver-side latency (per route):")
	serverRow := func(display, name string, s telemetry.HistogramSnapshot) {
		printLatency(display, s)
		if s.Count > 0 {
			out.ServerLatency = append(out.ServerLatency, latencyRow(name, s))
		}
	}
	routes := collectRoutes(server)
	for _, route := range routes {
		serverRow(route, route, server.Histogram("waldo_http_request_seconds", "", nil, "route", route).Snapshot())
	}
	fmt.Println("\nserver work:")
	for _, scope := range collectStores(server) {
		serverRow("rebuild "+scope, "rebuild "+scope, server.Histogram("waldo_updater_rebuild_seconds", "", nil, "store", scope).Snapshot())
	}
	return writeReportJSON(cfg.jsonPath, out)
}

// writeReportJSON emits the machine-readable report ('-' = stdout).
func writeReportJSON(path string, out reportJSON) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func printLatency(name string, s telemetry.HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	fmt.Printf("  %-22s n=%-7d p50=%-9s p95=%-9s p99=%-9s p999=%-9s max=%s\n",
		name, s.Count,
		fmtSeconds(s.Quantile(0.50)), fmtSeconds(s.Quantile(0.95)),
		fmtSeconds(s.Quantile(0.99)), fmtSeconds(s.Quantile(0.999)), fmtSeconds(s.Max))
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// faultCountString renders injected-fault counts in a stable kind order.
func faultCountString(counts map[faultinject.Kind]uint64) string {
	var parts []string
	for k := faultinject.Drop; k <= faultinject.Truncate; k++ {
		if n, ok := counts[k]; ok {
			parts = append(parts, fmt.Sprintf("%v=%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// collectRoutes lists the routes the server actually served.
func collectRoutes(reg *telemetry.Registry) []string {
	seen := map[string]bool{}
	reg.Each(func(name string, labels [][2]string, _ any) {
		if name != "waldo_http_request_seconds" {
			return
		}
		for _, kv := range labels {
			if kv[0] == "route" {
				seen[kv[1]] = true
			}
		}
	})
	routes := make([]string, 0, len(seen))
	for r := range seen {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	return routes
}

// collectStores lists the updater scopes with recorded rebuilds.
func collectStores(reg *telemetry.Registry) []string {
	seen := map[string]bool{}
	reg.Each(func(name string, labels [][2]string, _ any) {
		if name != "waldo_updater_rebuild_seconds" {
			return
		}
		for _, kv := range labels {
			if kv[0] == "store" {
				seen[kv[1]] = true
			}
		}
	})
	stores := make([]string, 0, len(seen))
	for s := range seen {
		stores = append(stores, s)
	}
	sort.Strings(stores)
	return stores
}
