package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// Every input of every workload is generated here, from -seed and the
// fixed campaign; the SUT only ever sees the generated CSV and HTTP
// requests.

const (
	rtl = sensor.KindRTLSDR
	// paperSamples is the paper's per-channel campaign size.
	paperSamples = 5282
	// bootstrapSamples is the per-channel campaign the network workloads
	// boot from: enough for a trained model per shard, small enough that
	// set-up stays a fraction of the run.
	bootstrapSamples = 1000
	// uploadCISpanDB is the CI span every generated upload reports; it
	// passes the shipped α′ = 1.0 dB gate.
	uploadCISpanDB = 0.4
	// shardCount is the cluster topology: three shards, no replicas.
	shardCount = 3
)

// metroChannels is the registry of the synthetic metro: every channel
// with a transmitter.
var metroChannels = []rfenv.Channel{15, 17, 21, 22, 27, 30, 39, 46, 47}

// ingestChannels are the two stores the ingest workloads write to.
var ingestChannels = []rfenv.Channel{46, 47}

// fetchChannels are the stores query_mixed reads, uploads to and
// retrains, so reads and writes share stores.
var fetchChannels = []rfenv.Channel{22, 46, 47}

// campaignSeed fixes the RF world and the war-drive campaign. They are
// one dataset, as the paper's Atlanta campaign is: -seed drives what the
// clients do with it (which cells upload when, the noise of what they
// upload, where and what they query, the captures a device replays),
// never the bootstrap state itself. A re-drawn campaign moves Algorithm
// 1's label structure, and with it every training and scanning cost, by
// ±12 % — more than any bound here — which is a fidelity question, not a
// regression gate's.
const campaignSeed = 42

// genCampaign simulates the canonical RTL-SDR war-drive of the metro.
func genCampaign(samples int, channels []rfenv.Channel) (*wardrive.Campaign, error) {
	env, err := rfenv.BuildMetro(campaignSeed)
	if err != nil {
		return nil, err
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: samples, Seed: campaignSeed + 1})
	if err != nil {
		return nil, err
	}
	return wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route, Sensors: []sensor.Spec{sensor.RTLSDR()}, Channels: channels, Seed: campaignSeed + 2,
	})
}

// cellGroup is the campaign's readings of one channel inside one routing
// cell — the unit a WSD's upload is confined to.
type cellGroup struct {
	ch       rfenv.Channel
	cell     cluster.Cell
	owner    string // owning shard on the benchmark ring
	readings []dataset.Reading
}

// benchRing reproduces the ring a waldo-gateway started with default
// flags builds over shards s0..s2, so the generator knows ownership
// without asking the SUT.
func benchRing() (*cluster.Ring, error) {
	return cluster.NewRing(cluster.RingConfig{}, shardIDs())
}

func shardIDs() []string {
	ids := make([]string, shardCount)
	for i := range ids {
		ids[i] = "s" + strconv.Itoa(i)
	}
	return ids
}

// groupByCell splits each channel's campaign into (channel, cell) groups
// in a deterministic order.
func groupByCell(camp *wardrive.Campaign, channels []rfenv.Channel, ring *cluster.Ring) []cellGroup {
	var out []cellGroup
	for _, ch := range channels {
		byCell := make(map[cluster.Cell][]dataset.Reading)
		for _, r := range camp.Readings(ch, rtl) {
			c := cluster.CellOf(r.Loc, 0)
			byCell[c] = append(byCell[c], r)
		}
		cells := make([]cluster.Cell, 0, len(byCell))
		for c := range byCell {
			cells = append(cells, c)
		}
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].X != cells[j].X {
				return cells[i].X < cells[j].X
			}
			return cells[i].Y < cells[j].Y
		})
		for _, c := range cells {
			out = append(out, cellGroup{
				ch: ch, cell: c, readings: byCell[c],
				owner: ring.Owner(cluster.RouteKey{Channel: ch, Cell: c}),
			})
		}
	}
	return out
}

// opKind is what one entry of an op list asks the SUT to do.
type opKind uint8

const (
	opUploadJSON    opKind = iota // POST /v1/readings, un-buffered per-decision upload
	opUploadFrame                 // POST /v1/upload/batch, one (channel, cell)
	opUploadSplit                 // POST /v1/upload/batch straddling two cells on two shards
	opModelCond                   // GET /v1/model with If-None-Match → 304
	opModelFull                   // GET /v1/model, body decoded
	opAvailOne                    // GET /v1/availability?channels=C → forwarded
	opAvailAll                    // GET /v1/availability, all channels → union-merge
	opRoute                       // POST /v1/route
	opFreshnessSlot               // freshness probe when due, else a conditional fetch
)

// opClass groups kinds for latency reporting.
type opClass uint8

const (
	classUpload opClass = iota
	classModel
	classAvailability
	classRoute
	numClasses
)

func (k opKind) class() opClass {
	switch k {
	case opUploadJSON, opUploadFrame, opUploadSplit:
		return classUpload
	case opAvailOne, opAvailAll:
		return classAvailability
	case opRoute:
		return classRoute
	default:
		return classModel
	}
}

// op is one pre-built request. Bodies are encoded during set-up so the
// timed window spends the load generator's CPU on sockets only.
type op struct {
	kind     opKind
	path     string // path and query
	body     []byte
	readings int // readings an upload carries
	site     int // query_mixed: index of the (channel, location) being read
}

// drawReadings samples n readings of a group with replacement and
// re-measures them: the same places, fresh measurement noise.
func drawReadings(rng *rand.Rand, g *cellGroup, n int, seq *int) []dataset.Reading {
	out := make([]dataset.Reading, n)
	for i := range out {
		r := g.readings[rng.Intn(len(g.readings))]
		r.Seq = *seq
		*seq++
		noise := rng.NormFloat64() * 0.3
		r.Signal.RSSdBm += noise
		r.Signal.CFTdB += noise
		r.Signal.AFTdB += noise
		out[i] = r
	}
	return out
}

func jsonUpload(rs []dataset.Reading) ([]byte, error) {
	up := dbserver.UploadJSON{CISpanDB: uploadCISpanDB, Readings: make([]dbserver.ReadingJSON, len(rs))}
	for i, r := range rs {
		up.Readings[i] = dbserver.FromReading(r)
	}
	return json.Marshal(up)
}

func uploadOp(kind opKind, rs []dataset.Reading) (op, error) {
	o := op{kind: kind, readings: len(rs)}
	var err error
	if kind == opUploadJSON {
		o.path = "/v1/readings"
		o.body, err = jsonUpload(rs)
	} else {
		o.path = "/v1/upload/batch"
		o.body, err = core.EncodeBatchFrame(rs)
	}
	return o, err
}

const (
	jsonUploadReadings  = 16
	frameUploadReadings = 64
	// Every jsonEvery-th op is a JSON upload; every splitEvery-th binary
	// frame straddles two cells owned by different shards.
	jsonEvery  = 5
	splitEvery = 8
)

// genIngestOps builds the upload list both ingest workloads replay: the
// same bytes go to one server or through the gateway.
func genIngestOps(seed int64, groups []cellGroup, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed + 100))
	// Pairs of same-channel groups on different shards, for split frames.
	var pairs [][2]int
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			if groups[i].ch == groups[j].ch && groups[i].owner != groups[j].owner {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("gen: no two cells of one channel on different shards")
	}
	ops := make([]op, 0, n)
	seq, frames := 1_000_000, 0
	for i := 0; i < n; i++ {
		var (
			kind opKind
			rs   []dataset.Reading
		)
		switch {
		case i%jsonEvery == 0:
			kind = opUploadJSON
			rs = drawReadings(rng, &groups[rng.Intn(len(groups))], jsonUploadReadings, &seq)
		default:
			frames++
			if frames%splitEvery == 0 {
				kind = opUploadSplit
				p := pairs[rng.Intn(len(pairs))]
				rs = drawReadings(rng, &groups[p[0]], frameUploadReadings/2, &seq)
				rs = append(rs, drawReadings(rng, &groups[p[1]], frameUploadReadings/2, &seq)...)
			} else {
				kind = opUploadFrame
				rs = drawReadings(rng, &groups[rng.Intn(len(groups))], frameUploadReadings, &seq)
			}
		}
		o, err := uploadOp(kind, rs)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// queryPattern is the repeating 20-op mix of query_mixed: 8 model
// fetches (6 conditional, 2 full), 5 availability lookups (3 forwarded,
// 2 merged), 4 route plans, 2 uploads, and the freshness slot.
var queryPattern = [20]opKind{
	opModelCond, opAvailOne, opRoute, opModelCond, opUploadFrame,
	opModelFull, opAvailAll, opModelCond, opRoute, opAvailOne,
	opModelCond, opModelFull, opRoute, opAvailAll, opModelCond,
	opUploadFrame, opAvailOne, opRoute, opModelCond, opFreshnessSlot,
}

const (
	// freshEvery: the freshness slot runs a probe on every 400th op and
	// a conditional fetch of the probed store otherwise.
	freshEvery           = 400
	queryUploadReadings  = 16
	routeLegM            = 2500.0 // 3 points, 2 legs: a 5 km polyline
	routeStepM           = 500.0
	routeHorizonS        = 300.0
	querySitesPerChannel = 4
)

// site is one (channel, location) a query_mixed client reads: the model
// of that channel on the shard owning the location's cell.
type site struct {
	group *cellGroup
	loc   geo.Point
	query string // channel, sensor and location-hint query parameters
}

// genSites picks the best-covered cells of each fetch channel.
func genSites(groups []cellGroup) []site {
	var sites []site
	for _, ch := range fetchChannels {
		var idx []int
		for i := range groups {
			if groups[i].ch == ch {
				idx = append(idx, i)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return len(groups[idx[a]].readings) > len(groups[idx[b]].readings)
		})
		for _, i := range idx[:min(querySitesPerChannel, len(idx))] {
			g := &groups[i]
			loc := g.readings[0].Loc
			sites = append(sites, site{group: g, loc: loc,
				query: fmt.Sprintf("channel=%d&sensor=%d&lat=%.6f&lon=%.6f", int(g.ch), int(rtl), loc.Lat, loc.Lon)})
		}
	}
	return sites
}

func routeBody(rng *rand.Rand, from geo.Point, channels []int) ([]byte, error) {
	brg := rng.Float64() * 360
	mid := from.Offset(brg, routeLegM)
	end := mid.Offset(brg+60, routeLegM)
	return json.Marshal(dbserver.RouteRequestJSON{
		Points: []dbserver.RoutePointJSON{
			{Lat: from.Lat, Lon: from.Lon}, {Lat: mid.Lat, Lon: mid.Lon}, {Lat: end.Lat, Lon: end.Lon}},
		StepM: routeStepM, HorizonS: routeHorizonS, Channels: channels,
	})
}

// genQueryOps builds the query_mixed list over the given sites.
func genQueryOps(seed int64, sites []site, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed + 200))
	ops := make([]op, 0, n)
	seq := 2_000_000
	for i := 0; i < n; i++ {
		kind := queryPattern[i%len(queryPattern)]
		si := rng.Intn(len(sites))
		s := &sites[si]
		o := op{kind: kind, site: si}
		var err error
		switch kind {
		case opModelCond, opModelFull, opFreshnessSlot:
			o.path = "/v1/model?" + s.query
		case opAvailOne:
			o.path = fmt.Sprintf("/v1/availability?lat=%.6f&lon=%.6f&channels=%d", s.loc.Lat, s.loc.Lon, int(s.group.ch))
		case opAvailAll:
			o.path = fmt.Sprintf("/v1/availability?lat=%.6f&lon=%.6f", s.loc.Lat, s.loc.Lon)
		case opRoute:
			o.path = "/v1/route"
			o.body, err = routeBody(rng, s.loc, nil)
		case opUploadFrame:
			o, err = uploadOp(opUploadFrame, drawReadings(rng, s.group, queryUploadReadings, &seq))
			o.site = si
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}
