package e2e

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/faultinject"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// ClusterConfig shapes a RunClusterCrash scenario: a sharded topology
// (every shard a primary+replica pair behind one gateway) driven by a
// WSD client through an optionally faulty transport, with one primary
// killed mid-load.
type ClusterConfig struct {
	// Seed drives every derived RNG (batch contents, cell choice).
	Seed int64
	// Shards is the number of primary+replica pairs; 0 means 3.
	Shards int
	// Channels carry the load; nil means {46, 47}.
	Channels []rfenv.Channel
	// CellDeg is the routing cell quantum; 0 means 0.02° (~2.2 km), so
	// the batch locations spread over a handful of cells per shard.
	CellDeg float64
	// Cells is how many distinct geo-cells the load walks; 0 means 12.
	Cells int
	// Batches is the phase-A (pre-kill, quiesced) batch count; 0 means 24.
	Batches int
	// BatchSize is readings per batch; 0 means 40.
	BatchSize int
	// LagBatches are uploaded immediately before the kill with no drain,
	// so the victim dies with its replication log possibly ahead of the
	// replica; 0 means 6.
	LagBatches int
	// PostBatches are uploaded after the kill, aimed at the victim's
	// cells, so they must land via gateway failover; 0 means 8.
	PostBatches int
	// DataDir is the root for every node's WAL directory (required).
	DataDir string
	// ClientPlan injects faults into the client→gateway transport.
	ClientPlan faultinject.Plan
	// Client overrides the WSD client's resilience parameters (harness
	// defaults are the fast chaos-friendly ones, as in Config).
	Client client.Config
	// MaxWall bounds the whole run; 0 means 2 minutes.
	MaxWall time.Duration
}

func (c *ClusterConfig) defaults() {
	if c.Shards == 0 {
		c.Shards = 3
	}
	if len(c.Channels) == 0 {
		c.Channels = []rfenv.Channel{46, 47}
	}
	if c.CellDeg == 0 {
		c.CellDeg = 0.02
	}
	if c.Cells == 0 {
		c.Cells = 12
	}
	if c.Batches == 0 {
		c.Batches = 24
	}
	if c.BatchSize == 0 {
		c.BatchSize = 40
	}
	if c.LagBatches == 0 {
		c.LagBatches = 6
	}
	if c.PostBatches == 0 {
		c.PostBatches = 8
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

// ClusterResult is what the cluster chaos tests assert on.
type ClusterResult struct {
	// Victim is the shard whose primary was killed.
	Victim string
	// AckedTotal counts readings the client got an ack for across all
	// phases; Acked* split them by durability obligation.
	AckedTotal int
	// Failovers is the gateway's failover counter at the end of the run
	// (≥ 1: the kill must have forced at least one advance).
	Failovers uint64

	// LostAfterRestart counts acked pre-kill readings of the victim
	// missing from its restarted primary — WAL replay failures.
	LostAfterRestart int
	// LostOnReplica counts acked readings owed to the victim's replica
	// (quiesced pre-kill phase plus the post-kill failover phase)
	// missing from it.
	LostOnReplica int
	// LostOnSurvivors counts acked readings missing from the unkilled
	// shards' primaries.
	LostOnSurvivors int

	// ModelMismatches counts (shard, channel) models whose encoded
	// descriptors differed between primary and replica at the pre-kill
	// quiesce point.
	ModelMismatches int
	// RestartModelMismatches counts victim channels whose descriptor
	// bytes changed across the WAL restart.
	RestartModelMismatches int
}

// clusterNode is one running node plus its HTTP front.
type clusterNode struct {
	node *cluster.Node
	ts   *adminhttp.Server
	dir  string
}

func (n *clusterNode) kill(flush bool) {
	if flush {
		n.node.DB.FlushWAL() //nolint:errcheck // crash simulation: best effort
	}
	n.ts.Close()
	n.node.Close()
}

// clusterBatch is one upload's bookkeeping: which seqs were acknowledged
// on which shard. The gateway splits batches per (channel, cell) owner,
// so the audit attributes every reading to the shard its own key routes
// to — reading by reading, exactly as the routing does.
type clusterBatch struct {
	// seqsByOwner maps shard ID → acknowledged reading seqs it owns.
	seqsByOwner map[string][]int
	total       int
}

// RunClusterCrash boots a Shards-way primary+replica topology behind a
// gateway, drives phased load through a (possibly fault-injected) WSD
// client, kills one primary mid-load, finishes the load through gateway
// failover, and audits every acknowledgment:
//
//	phase A  uploads, then broadcast retrain + replication drain — the
//	         quiesce point where primary and replica descriptors must be
//	         byte-identical;
//	phase B  uploads with no drain — the kill window; acks are owed to
//	         the victim's own WAL, not its replica;
//	phase C  uploads aimed at the victim's cells after the kill — acks
//	         are owed to the replica via failover.
//
// The zero-lost claim audited here is the division of durability labor:
// WAL replay must surface A∪B on a restarted victim, failover must have
// landed A∪C on the replica, and the survivors must hold everything they
// acked. Location-keyed routing, batch contents, and cell choice are all
// seed-derived, so a failure reproduces.
func RunClusterCrash(cfg ClusterConfig) (*ClusterResult, error) {
	cfg.defaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("e2e: RunClusterCrash needs a data dir")
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.MaxWall)
	defer cancel()

	// --- Topology: Shards × (primary, replica) + gateway. ---
	openNode := func(id, dir string, replicaURLs []string) (*clusterNode, error) {
		n, err := cluster.OpenNode(cluster.NodeConfig{
			ID: id,
			DB: dbserver.Config{
				Constructor: core.ConstructorConfig{Classifier: core.KindNB, Seed: cfg.Seed},
				DataDir:     dir,
				Metrics:     telemetry.New(),
			},
			ReplicaURLs: replicaURLs,
		})
		if err != nil {
			return nil, err
		}
		ts, err := adminhttp.Start("127.0.0.1:0", n.Handler())
		if err != nil {
			n.Close()
			return nil, err
		}
		return &clusterNode{node: n, ts: ts, dir: dir}, nil
	}

	primaries := make(map[string]*clusterNode, cfg.Shards)
	replicas := make(map[string]*clusterNode, cfg.Shards)
	var specs []cluster.ShardSpec
	defer func() {
		for _, n := range primaries {
			n.ts.Close()
			n.node.Close()
		}
		for _, n := range replicas {
			n.ts.Close()
			n.node.Close()
		}
	}()
	for i := 0; i < cfg.Shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		rep, err := openNode(id+"-replica", filepath.Join(cfg.DataDir, id+"-replica"), nil)
		if err != nil {
			return nil, err
		}
		replicas[id] = rep
		prim, err := openNode(id, filepath.Join(cfg.DataDir, id+"-primary"), []string{rep.ts.URL})
		if err != nil {
			return nil, err
		}
		primaries[id] = prim
		specs = append(specs, cluster.ShardSpec{ID: id, URLs: []string{prim.ts.URL, rep.ts.URL}})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:  specs,
		Ring:    cluster.RingConfig{Seed: uint64(cfg.Seed)},
		CellDeg: cfg.CellDeg,
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	gwTS, err := adminhttp.Start("127.0.0.1:0", gw.Handler())
	if err != nil {
		return nil, err
	}
	defer gwTS.Close()

	// --- Client: resolver-targeted at the gateway, chaos on its wire. ---
	ccfg := cfg.Client
	ccfg.Resolver = func() string { return gwTS.URL }
	if cfg.ClientPlan != nil {
		ccfg.HTTPClient = &http.Client{Transport: &faultinject.Transport{Plan: cfg.ClientPlan}}
	}
	cl, err := client.NewWithConfig("", ccfg)
	if err != nil {
		return nil, err
	}

	// --- Load geometry: Cells cell centers east of the metro center,
	// and each cell's ring owner (the gateway's routing is recomputed
	// here from the same inputs, so the audit is independent of it). ---
	cells := make([]geo.Point, cfg.Cells)
	cellOwner := make([]string, cfg.Cells)
	ownerCells := map[string][]int{}
	for i := range cells {
		cells[i] = rfenv.MetroCenter.Offset(90, 400+float64(i)*2500)
		// Owner is channel-dependent; use the first channel for victim
		// selection geometry (audits track per-batch owners exactly).
		k := cluster.RouteKey{Channel: cfg.Channels[0], Cell: cluster.CellOf(cells[i], cfg.CellDeg)}
		cellOwner[i] = gw.Ring().Owner(k)
		ownerCells[cellOwner[i]] = append(ownerCells[cellOwner[i]], i)
	}

	seq := 0
	makeBatch := func(phase, i int) (core.UploadBatch, geo.Point, rfenv.Channel) {
		ch := cfg.Channels[i%len(cfg.Channels)]
		center := cells[i%len(cells)]
		rng := rand.New(rand.NewSource(cycleSeed(cfg.Seed, phase*100003+i, ch)))
		rs := make([]dataset.Reading, 0, cfg.BatchSize)
		for j := 0; j < cfg.BatchSize; j++ {
			loc := center.Offset(rng.Float64()*360, rng.Float64()*300)
			rss := -100 + rng.Float64()
			if loc.Lon > center.Lon {
				rss = -70 + rng.Float64()
			}
			rs = append(rs, dataset.Reading{
				Seq: seq, Loc: loc, Channel: ch, Sensor: sensor.KindRTLSDR,
				Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
			})
			seq++
		}
		return core.UploadBatch{Readings: rs, CISpanDB: 0.4}, center, ch
	}
	auditBatch := func(batch core.UploadBatch) *clusterBatch {
		cb := &clusterBatch{seqsByOwner: map[string][]int{}, total: len(batch.Readings)}
		for _, r := range batch.Readings {
			k := cluster.RouteKey{Channel: r.Channel, Cell: cluster.CellOf(r.Loc, cfg.CellDeg)}
			owner := gw.Ring().Owner(k)
			cb.seqsByOwner[owner] = append(cb.seqsByOwner[owner], r.Seq)
		}
		return cb
	}
	upload := func(phase, i int) (*clusterBatch, error) {
		batch, _, _ := makeBatch(phase, i)
		if err := untilOK(ctx, fmt.Sprintf("cluster upload p%d #%d", phase, i), func() error {
			return cl.Upload(ctx, batch)
		}); err != nil {
			return nil, err
		}
		return auditBatch(batch), nil
	}

	ackedA := map[string][]int{} // quiesced: owed to primary AND replica
	ackedB := map[string][]int{} // kill window: owed to the primary's WAL
	ackedC := map[string][]int{} // post-kill: owed to the replica
	res := &ClusterResult{}
	fold := func(into map[string][]int, cb *clusterBatch) {
		for owner, seqs := range cb.seqsByOwner {
			into[owner] = append(into[owner], seqs...)
		}
		res.AckedTotal += cb.total
	}

	// --- Phase A: load, broadcast retrain, drain, byte-compare. ---
	for i := 0; i < cfg.Batches; i++ {
		cb, err := upload(0, i)
		if err != nil {
			return nil, err
		}
		fold(ackedA, cb)
	}
	for _, ch := range cfg.Channels {
		url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d", gwTS.URL, int(ch), int(sensor.KindRTLSDR))
		if err := untilOK(ctx, "broadcast retrain", func() error {
			resp, err := http.Post(url, "", nil)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("retrain = %d", resp.StatusCode)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	for id, prim := range primaries {
		if err := prim.node.Drain(ctx); err != nil {
			return nil, fmt.Errorf("drain %s: %w", id, err)
		}
	}
	victimModels := map[rfenv.Channel][]byte{} // victim's descriptors at the quiesce point
	victim := pickVictim(ownerCells, ackedA)
	res.Victim = victim
	for id := range primaries {
		for _, ch := range cfg.Channels {
			p, pOK := fetchModel(primaries[id].ts.URL, ch)
			r, rOK := fetchModel(replicas[id].ts.URL, ch)
			if pOK != rOK || !bytes.Equal(p, r) {
				res.ModelMismatches++
			}
			if id == victim && pOK {
				victimModels[ch] = p
			}
		}
	}

	// --- Phase B: the kill window — no drain, then the primary dies.
	// FlushWAL marks the durability point (an ack without a WAL flush
	// would be the bug this harness exists to catch); the replica keeps
	// whatever the shipper managed to push, no more. ---
	for i := 0; i < cfg.LagBatches; i++ {
		cb, err := upload(1, i)
		if err != nil {
			return nil, err
		}
		fold(ackedB, cb)
	}
	primaries[victim].kill(true)

	// --- Phase C: post-kill load aimed at the victim's cells; every
	// ack must come via gateway failover to the replica. ---
	vcells := ownerCells[victim]
	if len(vcells) == 0 {
		return nil, fmt.Errorf("e2e: victim %s owns no cells (seed geometry too small)", victim)
	}
	for i := 0; i < cfg.PostBatches; i++ {
		batch, _, _ := makeBatch(2, vcells[i%len(vcells)])
		if err := untilOK(ctx, fmt.Sprintf("post-kill upload #%d", i), func() error {
			return cl.Upload(ctx, batch)
		}); err != nil {
			return nil, err
		}
		fold(ackedC, auditBatch(batch))
	}
	// A model read for the victim's key must also survive via failover.
	for _, ch := range cfg.Channels {
		if _, ok := victimModels[ch]; !ok {
			continue
		}
		got, ok := fetchModel(gwTS.URL, ch)
		if !ok || !bytes.Equal(got, victimModels[ch]) {
			res.ModelMismatches++
		}
		break // one read exercises the path; the byte check is per-pair above
	}
	res.Failovers = gw.Failovers()

	// --- Audit: exports vs acked sets. ---
	for id, prim := range primaries {
		if id == victim {
			continue
		}
		if err := prim.node.Drain(ctx); err != nil {
			return nil, fmt.Errorf("drain survivor %s: %w", id, err)
		}
		have, err := exportSeqs(prim.ts.URL, cfg.Channels)
		if err != nil {
			return nil, err
		}
		res.LostOnSurvivors += countMissing(have, ackedA[id], ackedB[id], ackedC[id])
	}
	haveReplica, err := exportSeqs(replicas[victim].ts.URL, cfg.Channels)
	if err != nil {
		return nil, err
	}
	res.LostOnReplica = countMissing(haveReplica, ackedA[victim], ackedC[victim])

	// Restart the victim's primary from its data dir alone: WAL replay
	// must surface every pre-kill ack, and rebuild the descriptors at
	// the persisted versions byte-identically.
	restarted, err := openNode(victim+"-restarted", primaries[victim].dir, nil)
	if err != nil {
		return nil, fmt.Errorf("restart victim: %w", err)
	}
	defer func() {
		restarted.ts.Close()
		restarted.node.Close()
	}()
	havePrimary, err := exportSeqs(restarted.ts.URL, cfg.Channels)
	if err != nil {
		return nil, err
	}
	res.LostAfterRestart = countMissing(havePrimary, ackedA[victim], ackedB[victim])
	for ch, want := range victimModels {
		got, ok := fetchModel(restarted.ts.URL, ch)
		if !ok || !bytes.Equal(got, want) {
			res.RestartModelMismatches++
		}
	}
	return res, nil
}

// pickVictim chooses the shard owning the most quiesced acks, favoring
// one that also owns cells (so phase C has somewhere to aim).
func pickVictim(ownerCells map[string][]int, ackedA map[string][]int) string {
	best, bestN := "", -1
	ids := make([]string, 0, len(ownerCells))
	for id := range ownerCells {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic tie-break
	for _, id := range ids {
		if n := len(ackedA[id]); n > bestN {
			best, bestN = id, n
		}
	}
	return best
}

// fetchModel downloads one encoded descriptor directly from a node (or
// the gateway); ok is false when the node has no model for the channel.
func fetchModel(baseURL string, ch rfenv.Channel) ([]byte, bool) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/model?channel=%d&sensor=%d", baseURL, int(ch), int(sensor.KindRTLSDR)))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return body, true
}

// exportSeqs pulls every store export off a node and returns the set of
// reading sequence numbers it holds.
func exportSeqs(baseURL string, channels []rfenv.Channel) (map[int]bool, error) {
	have := map[int]bool{}
	for _, ch := range channels {
		resp, err := http.Get(fmt.Sprintf("%s/v1/export?channel=%d&sensor=%d", baseURL, int(ch), int(sensor.KindRTLSDR)))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue // this node never saw the channel
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("export ch%d from %s: status %d, err %v", int(ch), baseURL, resp.StatusCode, err)
		}
		rs, err := dataset.ReadCSV(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			have[r.Seq] = true
		}
	}
	return have, nil
}

// countMissing counts acked seqs absent from have.
func countMissing(have map[int]bool, ackedSets ...[]int) int {
	missing := 0
	for _, set := range ackedSets {
		for _, s := range set {
			if !have[s] {
				missing++
			}
		}
	}
	return missing
}
