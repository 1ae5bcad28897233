package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// ClusterVersionHeader carries the gateway's routing-configuration
// fingerprint (see ConfigVersion) on every proxied response. Clients
// cache it next to model descriptors to notice a re-ringed cluster.
const ClusterVersionHeader = "X-Waldo-Cluster-Version"

// ShardHeader names the shard(s) that served a proxied request. Single-
// shard forwards carry one ID; split uploads carry every leg's ID,
// comma-joined in leg order, so a client can see exactly where its
// readings landed.
const ShardHeader = "X-Waldo-Shard"

// ShardSpec names one shard and its endpoints, primary first, replicas
// after. The gateway sends traffic to the first endpoint it believes is
// alive, in list order.
type ShardSpec struct {
	ID   string
	URLs []string
}

// GatewayConfig configures the client-facing routing tier.
type GatewayConfig struct {
	// Shards is the cluster membership. Ring placement is keyed by
	// ShardSpec.ID, so IDs — not URLs — decide data ownership, and an
	// endpoint can move without migrating data.
	Shards []ShardSpec

	// Ring parameterizes placement. Every gateway for a cluster must use
	// the same RingConfig or they will disagree about ownership.
	Ring RingConfig

	// CellDeg is the geo-cell quantum for routing; 0 means DefaultCellDeg,
	// the only value shards grid at (any other: routing-only test runs,
	// whose place queries answer 502: the shards' grids are refused).
	CellDeg float64

	// HTTPClient carries gateway→shard traffic. nil means the gateway's
	// own keep-alive leg transport (legtransport.go), closed by Close.
	// An injected client's Transport (nil: http.DefaultTransport) is
	// called directly, so its Timeout, redirects and cookie jar do not
	// apply; the leg deadline rides the request context either way.
	HTTPClient *http.Client

	// Metrics receives the waldo_cluster_* gateway series. nil means a
	// private registry.
	Metrics *telemetry.Registry

	// ProbeInterval enables a background health prober that advances a
	// shard's active endpoint when it stops answering, so failover does
	// not wait for live traffic to trip over the corpse. 0 disables it;
	// per-request failover still applies.
	ProbeInterval time.Duration

	// MaxBodyBytes caps buffered upload bodies. 0 means 8 MiB.
	MaxBodyBytes int64

	// Log receives structured events (failovers, shard errors). Nil
	// disables logging.
	Log *wlog.Logger
}

// shardState is one shard's routing state: its spec plus the index of
// the endpoint currently receiving traffic. Failover is sticky — the
// active index only ever advances (mod len) when the current endpoint
// fails, never snaps back on its own — so a flapping primary cannot
// ping-pong writes between endpoints.
type shardState struct {
	spec ShardSpec
	eps  []*url.URL // spec.URLs, parsed once

	mu     sync.Mutex
	active int

	requests *telemetry.Counter
	errs     *telemetry.Counter
	redials  *telemetry.Counter

	grid *gridReplica // the gateway's copy of the shard's grid (gridreplica.go)

	// models holds the gateway's copies of the shard's followed stores'
	// descriptors (modelreplica.go); modelSyncs counts their syncs.
	modelMu    sync.Mutex
	models     map[modelKey]*modelReplica
	modelSyncs *replicaSyncs
}

// current returns the endpoint receiving this shard's traffic, as
// configured and as parsed.
func (s *shardState) current() (string, *url.URL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spec.URLs[s.active], s.eps[s.active]
}

func (s *shardState) currentURL() string {
	u, _ := s.current()
	return u
}

// markFailed advances past url if it is still the active endpoint
// (concurrent failures of the same endpoint coalesce to one advance).
// Reports whether it advanced.
func (s *shardState) markFailed(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spec.URLs[s.active] != url {
		return false
	}
	s.active = (s.active + 1) % len(s.spec.URLs)
	return true
}

// Gateway terminates the WSD client API and routes every request to the
// shard owning its geo-cell, failing over to replicas when a primary
// stops answering. Cross-shard reads (/v1/stats) and
// cluster-wide commands (hintless /v1/retrain, /v1/admin/snapshot) fan
// out to every shard and merge. Place queries are answered from the
// gateway's replicas of the owners' grids (gridreplica.go).
type Gateway struct {
	cfg     GatewayConfig
	ring    *Ring
	shards  map[string]*shardState
	version string
	rt      http.RoundTripper
	// legs is rt when the gateway built it; nil with an injected
	// GatewayConfig.HTTPClient.
	legs *legTransport

	metrics      *telemetry.Registry
	lg           *wlog.Logger
	failovers    *telemetry.Counter
	uploadSplits *telemetry.Counter
	places       *dbserver.Places
	models       *dbserver.Models

	// recorder backs GET /debug/traces; ownRec marks one created (and so
	// closed) by this gateway rather than attached by the caller.
	recorder *telemetry.Recorder
	ownRec   bool

	handler http.Handler
	// life ends at BeginShutdown: the prober stops and parked
	// /v1/model/watch legs, which no timeout leashes, are cancelled, and
	// watches parked on a model replica answered 503. follows ends at
	// Close, so the followers keep the replicas in sync through the
	// drain; followMu orders a follower's start against Close.
	life, follows       context.Context
	endLife, endFollows context.CancelFunc
	followMu            sync.Mutex
	wg                  sync.WaitGroup
}

// NewGateway validates the topology, builds the ring, and starts the
// optional health prober. Call Close to stop it.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one shard")
	}
	if cfg.CellDeg <= 0 {
		cfg.CellDeg = DefaultCellDeg
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.New()
	}
	ids := make([]string, 0, len(cfg.Shards))
	shards := make(map[string]*shardState, len(cfg.Shards))
	for _, spec := range cfg.Shards {
		if spec.ID == "" || len(spec.URLs) == 0 {
			return nil, fmt.Errorf("cluster: shard spec needs an ID and at least one URL")
		}
		if _, dup := shards[spec.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard ID %q", spec.ID)
		}
		eps := make([]*url.URL, len(spec.URLs))
		for i, raw := range spec.URLs {
			var err error
			if eps[i], err = url.Parse(raw); err != nil {
				return nil, fmt.Errorf("cluster: shard %s: %v", spec.ID, err)
			}
		}
		ids = append(ids, spec.ID)
		shards[spec.ID] = &shardState{
			spec: spec,
			eps:  eps,
			requests: cfg.Metrics.Counter("waldo_cluster_requests_total",
				"Client requests routed to this shard (fan-out legs count once per shard).",
				"shard", spec.ID),
			errs: cfg.Metrics.Counter("waldo_cluster_proxy_errors_total",
				"Transport-level failures talking to this shard's endpoints.", "shard", spec.ID),
			redials: cfg.Metrics.Counter("waldo_cluster_leg_redials_total",
				"Legs replayed on a fresh connection because the pooled keep-alive one had gone stale.",
				"shard", spec.ID),
			models:     make(map[modelKey]*modelReplica),
			modelSyncs: newReplicaSyncs(cfg.Metrics, spec.ID, "model"),
		}
	}
	var legs *legTransport
	var rt http.RoundTripper
	if cfg.HTTPClient == nil {
		redials := make(map[legEndpoint]*telemetry.Counter)
		for _, sh := range shards {
			for _, u := range sh.eps {
				redials[legEndpoint{u.Scheme, u.Host}] = sh.redials
			}
		}
		legs = &legTransport{redialed: func(ep legEndpoint) { redials[ep].Inc() }}
		rt = legs
	} else if rt = cfg.HTTPClient.Transport; rt == nil {
		rt = http.DefaultTransport
	}
	ring, err := NewRing(cfg.Ring, ids)
	if err != nil {
		return nil, err
	}
	rec := cfg.Metrics.FlightRecorder()
	ownRec := rec == nil
	if ownRec {
		rec = telemetry.NewRecorder(telemetry.RecorderOptions{Metrics: cfg.Metrics})
		cfg.Metrics.SetFlightRecorder(rec)
	}
	lg := cfg.Log.Named("gateway")
	g := &Gateway{
		cfg:      cfg,
		ring:     ring,
		shards:   shards,
		version:  ConfigVersion(cfg.Ring.Seed, ring.VNodes(), cfg.CellDeg, cfg.Shards),
		rt:       rt,
		legs:     legs,
		metrics:  cfg.Metrics,
		lg:       lg,
		recorder: rec,
		ownRec:   ownRec,
		failovers: cfg.Metrics.Counter("waldo_cluster_failover_total",
			"Times the gateway advanced a shard's active endpoint after failures."),
		uploadSplits: cfg.Metrics.Counter("waldo_cluster_upload_split_total",
			"Uploads whose readings crossed a routing-cell or channel boundary and were split across shard legs."),
		// A shard's own default body cap, so a route it would refuse is
		// refused here in the same words.
		places: dbserver.NewPlaces(cfg.Metrics, lg, 0),
	}
	g.life, g.endLife = context.WithCancel(context.Background())
	g.follows, g.endFollows = context.WithCancel(context.Background())
	g.models = dbserver.NewModels(cfg.Metrics, g.life.Done())
	for _, sh := range shards {
		synced := make(chan struct{})
		sh.grid = &gridReplica{g: g, sh: sh, synced: synced, follower: follower{kind: "grid",
			settle: sync.OnceFunc(func() { close(synced) }), syncs: newReplicaSyncs(cfg.Metrics, sh.spec.ID, "grid")}}
	}
	cfg.Metrics.Gauge("waldo_cluster_ring_nodes",
		"Shards on the consistent-hash ring.").Set(float64(len(ids)))
	cfg.Metrics.Gauge("waldo_cluster_ring_vnodes",
		"Virtual nodes per shard on the ring.").Set(float64(ring.VNodes()))
	g.handler = g.buildHandler()
	if cfg.ProbeInterval > 0 {
		g.wg.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// BeginShutdown stops the background prober and answers every parked
// /v1/model/watch 503, so clients re-arm elsewhere; other requests are
// still served. A binary calls it once its listener has stopped
// accepting and before it drains requests in flight — a parked watch
// would otherwise pin the drain for its whole budget — and calls Close
// after the drain. Idempotent.
func (g *Gateway) BeginShutdown() { g.endLife() }

// Close is BeginShutdown, then: stop the followers (place queries answer
// 502 from then on, model requests forward), wait for them and the prober, close the
// gateway-owned leg connections and the gateway-owned flight recorder.
// Idempotent.
func (g *Gateway) Close() error {
	g.BeginShutdown()
	g.followMu.Lock()
	g.endFollows()
	g.followMu.Unlock()
	g.wg.Wait()
	if g.legs != nil {
		g.legs.Close()
	}
	if g.ownRec {
		g.recorder.Close()
	}
	return nil
}

// Metrics returns the gateway's telemetry registry (never nil) — the
// e2e latency harness reads routing counters from it per load tier.
func (g *Gateway) Metrics() *telemetry.Registry { return g.metrics }

// ConfigVersion returns the routing-configuration fingerprint stamped on
// proxied responses.
func (g *Gateway) ConfigVersion() string { return g.version }

// Ring exposes the placement ring (for tests and operator tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// Failovers reports how many times the gateway advanced a shard's active
// endpoint away from a failed one.
func (g *Gateway) Failovers() uint64 { return g.failovers.Value() }

// Handler serves the gateway HTTP surface.
func (g *Gateway) Handler() http.Handler { return g.handler }

func (g *Gateway) buildHandler() http.Handler {
	m := g.metrics
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, m.WrapRoute(label, h))
	}
	route("GET /v1/health", "/v1/health", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	route("GET /healthz", "/healthz", g.handleHealthz)
	route("GET /v1/model", "/v1/model", g.handleModel)
	route("GET "+modelWatchPath, modelWatchPath, g.handleModelWatch)
	route("GET /v1/export", "/v1/export", g.handleKeyed)
	route("POST /v1/readings", "/v1/readings", g.handleReadings)
	route("POST /v1/upload/batch", "/v1/upload/batch", g.handleUploadBatch)
	route("POST /v1/retrain", "/v1/retrain", g.handleRetrain)
	route("GET /v1/stats", "/v1/stats", g.handleStats)
	route("GET /v1/availability", "/v1/availability", g.handleAvailability)
	route("POST /v1/route", "/v1/route", g.handleRoute)
	route("POST /v1/admin/snapshot", "/v1/admin/snapshot", g.handleBroadcastAdmin)
	mux.Handle("GET /metrics", m.Handler())
	// Unwrapped like /metrics: reading the recorder must not mint traces.
	mux.Handle("GET /debug/traces", g.recorder.Handler())
	return mux
}

// routeKey derives the placement key from a request's channel and
// optional lat/lon routing hints. Requests without a location hint fall
// into cell (0,0), whatever their channel — legal, but they only see
// that cell's owner's slice of the channel, so clients that care attach
// hints (see client.SetLocationHint).
func (g *Gateway) routeKey(q map[string][]string) (RouteKey, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	ch, err := strconv.Atoi(get("channel"))
	if err != nil {
		return RouteKey{}, fmt.Errorf("bad channel %q", get("channel")) // a shard's words
	}
	key := RouteKey{Channel: rfenv.Channel(ch)}
	if latS, lonS := get("lat"), get("lon"); latS != "" || lonS != "" {
		lat, errLat := strconv.ParseFloat(latS, 64)
		lon, errLon := strconv.ParseFloat(lonS, 64)
		if errLat != nil || errLon != nil {
			return RouteKey{}, fmt.Errorf("bad lat/lon hint: %q,%q", latS, lonS)
		}
		key.Cell = CellOf(geo.Point{Lat: lat, Lon: lon}, g.cfg.CellDeg)
	}
	return key, nil
}

// shardFor returns the owning shard's state.
func (g *Gateway) shardFor(key RouteKey) *shardState {
	return g.shards[g.ring.Owner(key)]
}

// handleKeyed proxies a single-key GET (export; a model request the
// owner's replica cannot answer) to the owning shard.
func (g *Gateway) handleKeyed(w http.ResponseWriter, r *http.Request) {
	key, err := g.routeKey(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.forward(w, r, g.shardFor(key), nil)
}

// handleRetrain routes to one shard when the request carries a location
// hint; without one it broadcasts, because the channel's readings are
// spread across the ring and "retrain channel N" means everywhere.
func (g *Gateway) handleRetrain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if len(q["lat"]) > 0 || len(q["lon"]) > 0 {
		key, err := g.routeKey(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g.forward(w, r, g.shardFor(key), nil)
		return
	}
	// Broadcast: a shard with no data for this channel answers 404, which
	// is a normal outcome of partitioning, not a fan-out failure.
	g.writeLegs(w, g.fanout(r), true)
}

// handleBroadcastAdmin fans an admin command (snapshot) to every shard.
func (g *Gateway) handleBroadcastAdmin(w http.ResponseWriter, r *http.Request) {
	g.writeLegs(w, g.fanout(r), false)
}

// writeLegs answers a broadcast with its legs as JSON: 502 unless every
// leg succeeded — a 404 leg, where tolerated, is skipped as long as some
// other leg did succeed.
func (g *Gateway) writeLegs(w http.ResponseWriter, results []FanoutResult, tolerate404 bool) {
	ok, bad := 0, false
	for _, res := range results {
		switch {
		case res.Status/100 == 2:
			ok++
		case tolerate404 && res.Status == http.StatusNotFound:
		default:
			bad = true
		}
	}
	w.Header().Set(ClusterVersionHeader, g.version)
	w.Header().Set("Content-Type", "application/json")
	if bad || ok == 0 {
		w.WriteHeader(http.StatusBadGateway)
	}
	json.NewEncoder(w).Encode(embeddable(results)) //nolint:errcheck // client went away
}

// handleStats fans /v1/stats to every shard and merges the per-store
// entries: reading counts and model bytes sum across shards, the model
// version reported is the maximum (shards train independently, so
// versions are per-shard; the max is the freshest anywhere).
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	results := g.fanout(r)
	type statKey struct{ ch, sensor int }
	merged := make(map[statKey]*dbserver.StatsJSON)
	for _, res := range results {
		if res.Status/100 != 2 {
			http.Error(w, fmt.Sprintf("shard %s: status %d", res.Shard, res.Status), http.StatusBadGateway)
			return
		}
		var entries []dbserver.StatsJSON
		if err := json.Unmarshal(res.Body, &entries); err != nil {
			http.Error(w, fmt.Sprintf("shard %s: %v", res.Shard, err), http.StatusBadGateway)
			return
		}
		for _, e := range entries {
			k := statKey{e.Channel, e.Sensor}
			m := merged[k]
			if m == nil {
				e := e
				merged[k] = &e
				continue
			}
			m.Readings += e.Readings
			m.ModelBytes += e.ModelBytes
			if e.ModelVersion > m.ModelVersion {
				m.ModelVersion = e.ModelVersion
			}
		}
	}
	keys := make([]statKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ch != keys[j].ch {
			return keys[i].ch < keys[j].ch
		}
		return keys[i].sensor < keys[j].sensor
	})
	out := make([]dbserver.StatsJSON, 0, len(keys))
	for _, k := range keys {
		out = append(out, *merged[k])
	}
	w.Header().Set(ClusterVersionHeader, g.version)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck // client went away
}

// fanout sends the request to every shard in parallel and collects the
// legs in ring order, each with the same per-shard failover as
// single-key routing.
func (g *Gateway) fanout(r *http.Request) []FanoutResult {
	ids := g.ring.Nodes()
	results := make([]FanoutResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			results[i] = g.tryShard(r, sh, nil)
		}(i, g.shards[id])
	}
	wg.Wait()
	return results
}

// FanoutResult is one shard's leg of a broadcast, as reported to the
// client. Body holds the shard's bytes as received — the merges
// unmarshal it, which is all the validation they need — so results
// reported to a client go through embeddable first.
type FanoutResult struct {
	Shard  string          `json:"shard"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// embeddable makes every leg body valid JSON, in place, so the results
// can be encoded: a non-JSON body (a shard's plain-text error) becomes
// a JSON string.
func embeddable(results []FanoutResult) []FanoutResult {
	for i := range results {
		if b := results[i].Body; len(b) > 0 && !json.Valid(b) {
			results[i].Body, _ = json.Marshal(string(b)) // a string always marshals
		}
	}
	return results
}

// errShuttingDown ends a parked watch leg at BeginShutdown.
var errShuttingDown = errors.New("cluster: gateway shutting down")

// withShard is the one way the gateway calls a shard. It counts the
// request, runs it under a "leg" child span (attr shard=ID) of the
// request's trace — shardDo propagates that span's context, so the
// shard's handler and WAL spans nest under the leg — and walks the
// shard's endpoints from the active one: an endpoint that fails at
// transport level, or whose response consume could not read (a non-nil
// error), is marked failed and the next is tried. consume must not fail
// once it has passed a byte on. It returns nil once consume accepted a
// response, else the last error.
func (g *Gateway) withShard(r *http.Request, sh *shardState, body []byte, consume func(*http.Response) error) error {
	sh.requests.Inc()
	ctx := r.Context()
	var leg *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		leg = parent.Child("leg")
		leg.SetAttr("shard", sh.spec.ID)
		ctx = telemetry.ContextWithSpan(ctx, leg)
		defer leg.End()
	}
	var lastErr error
	for range sh.spec.URLs {
		raw, ep := sh.current()
		status, err := g.shardDo(ctx, r, ep, body, false, consume)
		if err == nil {
			if status >= http.StatusInternalServerError {
				leg.Fail(fmt.Sprintf("leg status %d", status))
			}
			return nil
		}
		if err == errShuttingDown { // the gateway's doing, not the endpoint's
			return err
		}
		g.endpointFailed(ctx, sh, raw, err, "request")
		lastErr = err
	}
	leg.Fail("shard unavailable")
	return lastErr
}

// endpointFailed counts a failed call to one of sh's endpoints and
// advances the shard past it if it is still the active one.
func (g *Gateway) endpointFailed(ctx context.Context, sh *shardState, url string, err error, source string) {
	sh.errs.Inc()
	if sh.markFailed(url) {
		g.failovers.Inc()
		g.lg.Warn(ctx, "failover", "shard", sh.spec.ID, "from", url, "err", err, "source", source)
	}
}

// tryShard runs one shard leg of a fan-out: withShard plus buffering the
// response as a FanoutResult.
func (g *Gateway) tryShard(r *http.Request, sh *shardState, body []byte) FanoutResult {
	res := FanoutResult{Shard: sh.spec.ID}
	err := g.withShard(r, sh, body, func(resp *http.Response) error {
		g.awaitRetrain(sh, r, resp)
		// Read one byte past the cap so truncation is detected, not
		// silently served as a clipped (and likely invalid) body.
		data, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBodyBytes+1))
		if err != nil {
			return err
		}
		if int64(len(data)) > g.cfg.MaxBodyBytes {
			// The shard answered, just with more than we buffer — an
			// explicit error, not a failover (the endpoint is healthy).
			sh.errs.Inc()
			res.Status = http.StatusBadGateway
			res.Error = fmt.Sprintf("shard response exceeded the %d-byte gateway buffer", g.cfg.MaxBodyBytes)
			return nil
		}
		res.Status, res.Body = resp.StatusCode, data
		return nil
	})
	if err != nil {
		res.Status, res.Error = http.StatusBadGateway, err.Error()
	}
	return res
}

// legHeaders are the client request headers a leg carries on to the
// shard (the first value of each), spelled canonically so shardDo can
// index the header maps directly: Get and Set would re-canonicalize
// the CI-span name, an allocation each, on every leg.
var legHeaders = [...]string{"Content-Type", "If-None-Match", "Accept", ciSpanHeaderKey}

var ciSpanHeaderKey = http.CanonicalHeaderKey(dbserver.CISpanHeader)

// shardDo runs one exchange with endpoint ep — r's method, path, query
// and legHeaders, plus ctx's span in X-Waldo-Trace so the shard's spans
// join the gateway's trace — then consume on the response. It is bounded
// by a deadline (legTimeout, or ctx's if sooner), not by ctx's
// cancellation, which would arm the serving loop's hang-up watcher on
// every proxied request. A client's /v1/model/watch leg parks past any
// budget by design: the client's hang-up and BeginShutdown
// (errShuttingDown) end it; a follower's poll (follow) parks for the
// budget its follower sets on ctx. It reports the response status once
// consume accepted it.
func (g *Gateway) shardDo(ctx context.Context, r *http.Request, ep *url.URL, body []byte, follow bool, consume func(*http.Response) error) (int, error) {
	var cancel context.CancelFunc
	parked := !follow && r.URL.Path == modelWatchPath
	switch {
	case parked:
		ctx, cancel = context.WithCancel(ctx)
		defer context.AfterFunc(g.life, cancel)()
	case follow:
		ctx, cancel = context.WithCancel(ctx)
	default:
		deadline := time.Now().Add(legTimeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		ctx, cancel = context.WithDeadline(context.WithoutCancel(ctx), deadline)
	}
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, "", rd)
	if err != nil {
		return 0, err
	}
	*req.URL = url.URL{Scheme: ep.Scheme, Host: ep.Host, Path: ep.Path + r.URL.Path, RawQuery: r.URL.RawQuery}
	for _, h := range legHeaders {
		if vs := r.Header[h]; len(vs) > 0 && vs[0] != "" {
			req.Header[h] = vs[:1]
		}
	}
	if sc := telemetry.SpanFromContext(ctx).Context(); sc.Valid() {
		req.Header.Set(telemetry.TraceHeader, sc.Header())
	}
	resp, err := g.rt.RoundTrip(req)
	if err != nil {
		if parked && g.life.Err() != nil {
			err = errShuttingDown
		}
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, consume(resp)
}

// maxPooledBody bounds the request-body buffers bodyPool keeps: one
// grown past it by an outsized upload is left to the collector rather
// than pinned in the pool.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody buffers a request body under the gateway cap. A body of known
// length is read in one pass into a pooled buffer; the caller hands it
// back with putBody once nothing refers to it — every request body the
// gateway reads dies with its handler. One of unknown length is read
// through bytes.Buffer. On failure it has already answered (413 for an
// oversize body, else 400) and reports false.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	var err error
	bp := bodyPool.Get().(*[]byte)
	if n := r.ContentLength; n >= 0 && n <= g.cfg.MaxBodyBytes {
		*bp = slices.Grow((*bp)[:0], int(n))[:n]
		_, err = io.ReadFull(r.Body, *bp)
	} else {
		var buf bytes.Buffer
		_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		*bp = buf.Bytes()
	}
	if err != nil {
		putBody(bp)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), status)
		return nil, false
	}
	return bp, true
}

// putBody returns a readBody buffer to the pool.
func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// forward proxies a single-key request to a shard: withShard plus
// copying the response headers and streaming the body through, never
// buffered. A transport failure before that retries the shard's next
// endpoint in the same request, so a client upload racing a primary kill
// lands on the replica instead of erroring — the zero-lost-acks path the
// chaos harness exercises.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, sh *shardState, body []byte) {
	if body == nil && r.Method != http.MethodGet && r.Method != http.MethodHead && r.Body != nil {
		// Buffer mutation bodies so a failover retry can resend them.
		bp, ok := g.readBody(w, r)
		if !ok {
			return
		}
		defer putBody(bp)
		body = *bp
	}
	err := g.withShard(r, sh, body, func(resp *http.Response) error {
		g.awaitRetrain(sh, r, resp)
		var descriptor []byte
		if resp.StatusCode == http.StatusOK && (r.URL.Path == modelPath || r.URL.Path == modelWatchPath) {
			// Read whole before a byte is passed on: it seeds the store's
			// replica (modelreplica.go), and a read error still fails over.
			// One over the gateway's buffer is passed on, not followed.
			var err error
			if descriptor, err = io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBodyBytes+1)); err != nil {
				return err
			}
			if int64(len(descriptor)) <= g.cfg.MaxBodyBytes {
				g.followModel(sh, r, resp.Header, descriptor)
			}
		}
		for _, h := range []string{"Content-Type", "ETag", "X-Waldo-Model-Version", dbserver.HorizonHeader, "Retry-After"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set(ClusterVersionHeader, g.version)
		w.Header().Set(ShardHeader, sh.spec.ID)
		w.WriteHeader(resp.StatusCode)
		if len(descriptor) > 0 {
			w.Write(descriptor) //nolint:errcheck // client went away
		}
		io.Copy(w, resp.Body) //nolint:errcheck // client went away
		return nil
	})
	switch {
	case err == nil:
	case err == errShuttingDown:
		w.Header().Set(ClusterVersionHeader, g.version)
		http.Error(w, "gateway shutting down", http.StatusServiceUnavailable)
	default:
		g.lg.Error(r.Context(), "shard_unavailable", "shard", sh.spec.ID, "err", err)
		w.Header().Set(ClusterVersionHeader, g.version)
		http.Error(w, fmt.Sprintf("shard %s unavailable: %v", sh.spec.ID, err), http.StatusBadGateway)
	}
}

// healthzShard is one shard's row in the gateway's /healthz payload.
type healthzShard struct {
	ID     string   `json:"id"`
	URLs   []string `json:"urls"`
	Active string   `json:"active"`
}

// handleHealthz reports the gateway's own topology view: ring shape,
// config version, and which endpoint each shard's traffic currently
// targets — the first place to look when failover fired.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ids := g.ring.Nodes()
	out := struct {
		ClusterVersion string         `json:"cluster_version"`
		RingNodes      int            `json:"ring_nodes"`
		RingVNodes     int            `json:"ring_vnodes"`
		CellDeg        float64        `json:"cell_deg"`
		Shards         []healthzShard `json:"shards"`
	}{
		ClusterVersion: g.version,
		RingNodes:      len(ids),
		RingVNodes:     g.ring.VNodes(),
		CellDeg:        g.cfg.CellDeg,
	}
	for _, id := range ids {
		sh := g.shards[id]
		out.Shards = append(out.Shards, healthzShard{
			ID:     id,
			URLs:   sh.spec.URLs,
			Active: sh.currentURL(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck // client went away
}

// probeLoop periodically hits each shard's active endpoint's health
// probe and advances past endpoints that stop answering, so failover
// happens even on an idle gateway.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	// What shardDo forwards of a client request, here with no client.
	probe, err := http.NewRequest(http.MethodGet, "/v1/health", nil)
	if err != nil {
		panic(err) // constant arguments
	}
	for {
		select {
		case <-g.life.Done():
			return
		case <-t.C:
			for _, id := range g.ring.Nodes() {
				sh := g.shards[id]
				raw, ep := sh.current()
				_, err := g.shardDo(context.Background(), probe, ep, nil, false, func(resp *http.Response) error {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
					return nil
				})
				if err != nil {
					g.endpointFailed(context.Background(), sh, raw, err, "probe")
				}
			}
		}
	}
}
