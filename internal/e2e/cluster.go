package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/faultinject"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// A cluster run's fixed shape: clusterShards primary+replica pairs, load
// on clusterChannels over clusterCells adjacent geo-cells, in batches of
// batchSize readings — preKillBatches quiesced before the kill,
// lagBatches uploaded immediately before it with no drain (so the victim
// dies with its replication log possibly ahead of the replica), and
// postKillBatches after it, aimed at the victim's cells, so they must
// land via gateway failover.
var clusterChannels = []rfenv.Channel{46, 47}

const (
	clusterShards   = 3
	clusterCells    = 12
	batchSize       = 40
	preKillBatches  = 24
	lagBatches      = 6
	postKillBatches = 8
)

// ClusterConfig shapes a RunClusterCrash scenario: a sharded topology
// (every shard a primary+replica pair behind one gateway) driven by a
// WSD client through an optionally faulty transport, with one primary
// killed mid-load.
type ClusterConfig struct {
	// Seed drives every derived RNG (batch contents, cell choice).
	Seed int64
	// DataDir is the root for every node's WAL directory (required).
	DataDir string
	// ClientPlan injects faults into the client→gateway transport.
	ClientPlan faultinject.Plan
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

// adopted returns nil once the replica p has adopted its primary's
// incarnation, that is once its first poll has been answered.
func (p *proc) adopted() error {
	resp, err := http.Get(p.ts.URL + "/v1/repl/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct{ Follows uint64 }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if st.Follows == 0 {
		return fmt.Errorf("follows no primary incarnation yet")
	}
	return nil
}

// RunClusterCrash boots a clusterShards-way primary+replica topology
// behind a gateway, drives phased load through a (possibly
// fault-injected) WSD client, kills one primary mid-load, finishes the
// load through gateway failover, and audits every acknowledgment:
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
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("e2e: RunClusterCrash needs a data dir")
	}
	ctx, cancel := context.WithTimeout(context.Background(), maxWall)
	defer cancel()

	// --- Topology: clusterShards × (primary, replica) + gateway. ---
	var st stack
	defer st.stop()
	node := func(id, dir, follow string) (*proc, error) {
		return st.store(cluster.NodeConfig{ID: id, Follow: follow, DB: dbserver.Config{
			Constructor: dbserver.ShippedConstructor(),
			DataDir:     dir,
		}}, nil)
	}
	primaries := make(map[string]*proc, clusterShards)
	replicas := make(map[string]*proc, clusterShards)
	var specs []cluster.ShardSpec
	for i := 0; i < clusterShards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		prim, err := node(id, filepath.Join(cfg.DataDir, id+"-primary"), "")
		if err != nil {
			return nil, err
		}
		primaries[id] = prim
		rep, err := node(id+"-replica", filepath.Join(cfg.DataDir, id+"-replica"), prim.ts.URL)
		if err != nil {
			return nil, err
		}
		replicas[id] = rep
		// The replica's first poll lands before any write, so it follows
		// the primary's journal from its first record on.
		if err := untilOK(ctx, "replica "+id+" adopting its primary", rep.adopted); err != nil {
			return nil, err
		}
		specs = append(specs, cluster.ShardSpec{ID: id, URLs: []string{prim.ts.URL, rep.ts.URL}})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards: specs,
		Ring:   cluster.RingConfig{Seed: uint64(cfg.Seed)},
	})
	if err != nil {
		return nil, err
	}
	gwp := &proc{close: gw.Close}
	if err := st.serve(gwp, gw.Handler(), gw.BeginShutdown); err != nil {
		return nil, err
	}

	// --- Client: aimed at the gateway, chaos on its wire. ---
	cl, _, err := connect(gwp.ts.URL, cfg.Seed, cfg.ClientPlan)
	if err != nil {
		return nil, err
	}

	// --- Load geometry: clusterCells adjacent routing cells in a row east
	// from the metro center's, each load center at its cell's center so
	// a batch's 300 m scatter stays in the cell, and each cell's ring
	// owner (the gateway's routing is recomputed here from the same
	// inputs, so the audit is independent of it). ---
	cells := make([]geo.Point, clusterCells)
	ownerCells := map[string][]int{}
	origin := cluster.CellOf(rfenv.MetroCenter, cluster.DefaultCellDeg)
	for i := range cells {
		cell := cluster.Cell{X: origin.X, Y: origin.Y + int32(i)}
		cells[i] = geo.Point{
			Lat: (float64(cell.X) + 0.5) * cluster.DefaultCellDeg,
			Lon: (float64(cell.Y) + 0.5) * cluster.DefaultCellDeg,
		}
		owner := gw.Ring().Owner(cluster.RouteKey{Channel: clusterChannels[0], Cell: cell})
		ownerCells[owner] = append(ownerCells[owner], i)
	}

	seq := 0
	makeBatch := func(phase, i int) core.UploadBatch {
		ch := clusterChannels[i%len(clusterChannels)]
		center := cells[i%len(cells)]
		rng := rand.New(rand.NewSource(cycleSeed(cfg.Seed, phase*100003+i, ch)))
		rs := make([]dataset.Reading, 0, batchSize)
		for j := 0; j < batchSize; j++ {
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
		return core.UploadBatch{Readings: rs, CISpanDB: 0.4}
	}
	ackedA := map[string][]int{} // quiesced: owed to primary AND replica
	ackedB := map[string][]int{} // kill window: owed to the primary's WAL
	ackedC := map[string][]int{} // post-kill: owed to the replica
	res := &ClusterResult{}
	// upload sends a phase's batch i until it is acknowledged, then
	// credits each reading to the shard its own key routes to: the
	// gateway splits batches per (channel, cell) owner, so the audit
	// attributes readings exactly as the routing does.
	upload := func(acked map[string][]int, phase, i int) error {
		batch := makeBatch(phase, i)
		if err := untilOK(ctx, fmt.Sprintf("cluster upload p%d #%d", phase, i), func() error {
			return cl.Upload(ctx, batch)
		}); err != nil {
			return err
		}
		for _, r := range batch.Readings {
			owner := gw.Ring().Owner(cluster.RouteKey{Channel: r.Channel, Cell: cluster.CellOf(r.Loc, cluster.DefaultCellDeg)})
			acked[owner] = append(acked[owner], r.Seq)
		}
		res.AckedTotal += len(batch.Readings)
		return nil
	}

	// --- Phase A: load, broadcast retrain, drain, byte-compare. ---
	for i := 0; i < preKillBatches; i++ {
		if err := upload(ackedA, 0, i); err != nil {
			return nil, err
		}
	}
	for _, ch := range clusterChannels {
		url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d", gwp.ts.URL, int(ch), int(sensor.KindRTLSDR))
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
		for _, ch := range clusterChannels {
			p, pOK := fetchModel(primaries[id].ts.URL, ch, "")
			r, rOK := fetchModel(replicas[id].ts.URL, ch, "")
			if pOK != rOK || !bytes.Equal(p, r) {
				res.ModelMismatches++
			}
			if id == victim && pOK {
				victimModels[ch] = p
			}
		}
	}

	// --- Phase B: the kill window — no drain, then the primary dies.
	// The kill's WAL flush marks the durability point (an ack without a
	// WAL flush would be the bug this harness exists to catch); the
	// replica keeps whatever its follower managed to pull, no more. ---
	for i := 0; i < lagBatches; i++ {
		if err := upload(ackedB, 1, i); err != nil {
			return nil, err
		}
	}
	if err := primaries[victim].kill(); err != nil {
		return nil, err
	}

	// --- Phase C: post-kill load aimed at the victim's cells; every
	// ack must come via gateway failover to the replica. ---
	vcells := ownerCells[victim]
	if len(vcells) == 0 {
		return nil, fmt.Errorf("e2e: victim %s owns no cells (seed geometry too small)", victim)
	}
	for i := 0; i < postKillBatches; i++ {
		if err := upload(ackedC, 2, vcells[i%len(vcells)]); err != nil {
			return nil, err
		}
	}
	// A model read for the victim's key must also survive via failover;
	// the gateway places it by the location hint of a victim cell.
	at := cells[vcells[0]]
	hint := fmt.Sprintf("&lat=%v&lon=%v", at.Lat, at.Lon)
	for _, ch := range clusterChannels {
		if _, ok := victimModels[ch]; !ok {
			continue
		}
		got, ok := fetchModel(gwp.ts.URL, ch, hint)
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
		have, err := prim.seqs(clusterChannels)
		if err != nil {
			return nil, err
		}
		res.LostOnSurvivors += countMissing(have, ackedA[id], ackedB[id], ackedC[id])
	}
	haveReplica, err := replicas[victim].seqs(clusterChannels)
	if err != nil {
		return nil, err
	}
	res.LostOnReplica = countMissing(haveReplica, ackedA[victim], ackedC[victim])

	// Restart the victim's primary from its data dir alone: WAL replay
	// must surface every pre-kill ack, and rebuild the descriptors at
	// the persisted versions byte-identically.
	restarted, err := node(victim+"-restarted", primaries[victim].dir, "")
	if err != nil {
		return nil, fmt.Errorf("restart victim: %w", err)
	}
	havePrimary, err := restarted.seqs(clusterChannels)
	if err != nil {
		return nil, err
	}
	res.LostAfterRestart = countMissing(havePrimary, ackedA[victim], ackedB[victim])
	for ch, want := range victimModels {
		got, ok := fetchModel(restarted.ts.URL, ch, "")
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
// the gateway, which routes by the lat/lon in hint); ok is false when the
// node has no model for the channel.
func fetchModel(baseURL string, ch rfenv.Channel, hint string) ([]byte, bool) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/model?channel=%d&sensor=%d%s", baseURL, int(ch), int(sensor.KindRTLSDR), hint))
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
