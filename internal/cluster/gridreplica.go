package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// Place queries at the gateway (DESIGN.md §12 "Replicas"): a cell's
// verdicts are its owner's alone, so the gateway keeps a replica of each
// shard's grid — one follower per shard long-polls its GET /v1/grid —
// and answers with dbserver.Places, the shards' own code, reading each
// cell from its owner's replica: no leg, no merge. The follow loop here
// keeps model replicas too (modelreplica.go).

const gridPath = "/v1/grid"

// followRetry is the pause after a failed sync; it doubles with each
// failure in a row, up to legTimeout.
const followRetry = 50 * time.Millisecond

// follower is what one follow loop shares with the gateway: the
// replica's outcome series, and what settles its first sync.
type follower struct {
	kind   string // "grid" or "model": the series' kind label
	retire bool   // a refused sync ends the follower (models), else it retries (grids)
	settle func() // called once a sync has settled, in sync or not
	syncs  *replicaSyncs
}

// replicaSyncs is waldo_cluster_replica_syncs_total for one shard and kind.
type replicaSyncs struct{ ok, unchanged, refused, failed *telemetry.Counter }

func newReplicaSyncs(m *telemetry.Registry, shard, kind string) *replicaSyncs {
	const help = "Syncs of the gateway's replicas of this shard's grid or model descriptors, by kind and outcome (ok, unchanged, refused, error)."
	outcome := func(o string) *telemetry.Counter {
		return m.Counter("waldo_cluster_replica_syncs_total", help, "shard", shard, "kind", kind, "outcome", o)
	}
	return &replicaSyncs{ok: outcome("ok"), unchanged: outcome("unchanged"), refused: outcome("refused"), failed: outcome("error")}
}

// A replica is a gateway's copy of something a shard serves, kept by
// one follow loop.
type replica interface {
	// sync runs one exchange with ep, applies the answer and reports
	// whether the copy is in sync after it; an error is a transport
	// failure.
	sync(ep *url.URL) (bool, error)
	// drop discards the copy: requests stop reading it.
	drop()
}

// gridReplica is the gateway's copy of one shard's grid.
type gridReplica struct {
	follower
	g       *Gateway
	sh      *shardState
	started bool          // the follower runs; guarded by Gateway.followMu
	synced  chan struct{} // closed once the first sync settled
	// snap is nil while the follower is out of sync: the shard's cells
	// answer 502 rather than from a grid nobody follows.
	snap atomic.Pointer[geoindex.Snapshot]
	// etag and horizon belong to the follow loop.
	etag    string
	horizon time.Duration
}

func (g *Gateway) handleAvailability(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(ClusterVersionHeader, g.version)
	g.places.Availability(w, r, g.cfg.CellDeg, g.ownersGrid(w.Header()))
}

func (g *Gateway) handleRoute(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(ClusterVersionHeader, g.version)
	g.places.Route(w, r, g.cfg.CellDeg, g.ownersGrid(w.Header()))
}

// ownersGrid is one place query's view: each cell from its owner's
// replica, loaded once per owner; h's X-Waldo-Shard names the owners
// read, sorted.
func (g *Gateway) ownersGrid(h http.Header) dbserver.GridView {
	var owners []string
	var snaps []*geoindex.Snapshot
	return func(c geoindex.Cell) (*geoindex.Snapshot, error) {
		id := g.ring.Owner(RouteKey{Cell: c})
		i, found := slices.BinarySearch(owners, id)
		if found {
			return snaps[i], nil
		}
		snap := g.replica(g.shards[id])
		if snap == nil {
			return nil, fmt.Errorf("shard %s unavailable: its grid replica is not in sync", id)
		}
		owners, snaps = slices.Insert(owners, i, id), slices.Insert(snaps, i, snap)
		h.Set(ShardHeader, strings.Join(owners, ","))
		return snap, nil
	}
}

// replica returns sh's grid replica, nil while it is out of sync. The
// first place query for a shard starts its follower and waits for the
// first sync, up to legTimeout: a gateway asked no place polls no grid.
func (g *Gateway) replica(sh *shardState) *geoindex.Snapshot {
	r := sh.grid
	g.followMu.Lock()
	if !r.started && g.follows.Err() == nil {
		r.started = true
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.follow(sh, &r.follower, r)
		}()
	}
	g.followMu.Unlock()
	select {
	case <-r.synced:
	default:
		t := time.NewTimer(legTimeout)
		select {
		case <-r.synced:
		case <-t.C:
		case <-g.follows.Done():
		}
		t.Stop()
	}
	return r.snap.Load()
}

// follow keeps one replica of sh's until the gateway closes, syncing
// from the shard's active endpoint. A transport error fails the endpoint
// over as a leg's does, the next one tried at once until each has failed
// in a row; a non-2xx answer or a refused copy is no failover, and ends a
// retiring follower. Any failure drops the replica until a sync succeeds,
// and so does the end.
func (g *Gateway) follow(sh *shardState, f *follower, r replica) {
	defer r.drop()
	var pause time.Duration
	misses := 0
	for {
		raw, ep := sh.current()
		connected, err := r.sync(ep)
		if g.follows.Err() != nil {
			return
		}
		if connected {
			pause, misses = 0, 0
			f.settle()
			continue
		}
		r.drop()
		if err != nil {
			g.endpointFailed(g.follows, sh, raw, err, f.kind)
			if misses++; misses < len(sh.spec.URLs) {
				continue
			}
		} else if f.retire {
			return
		}
		f.settle()
		pause = min(max(2*pause, followRetry), legTimeout)
		t := time.NewTimer(pause)
		select {
		case <-g.follows.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// poll runs one follower exchange: GET target from ep, conditional on
// etag and then allowed horizon on top of legTimeout — the bound on how
// stale a silently partitioned replica gets. It records a stated
// horizon in *horizon, hands a 200's body (cut short at the gateway's
// buffer) to apply, counts the outcome and reports whether the replica
// is in sync after it; an error is a transport failure.
func (g *Gateway) poll(sh *shardState, f *follower, ep *url.URL, target, etag string, horizon *time.Duration, apply func(*http.Response, []byte) error) (bool, error) {
	budget := legTimeout
	if etag != "" {
		budget += *horizon
	}
	ctx, cancel := context.WithTimeout(g.follows, budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	sh.requests.Inc()
	connected := false
	_, err = g.shardDo(ctx, req, ep, nil, true, func(resp *http.Response) error {
		if ms, err := strconv.ParseInt(resp.Header.Get(dbserver.HorizonHeader), 10, 64); err == nil && ms >= 0 {
			*horizon = time.Duration(ms) * time.Millisecond
		}
		var refusal error
		switch {
		case resp.StatusCode == http.StatusNotModified && etag != "":
			f.syncs.unchanged.Inc()
			connected = true
			return nil
		case resp.StatusCode == http.StatusOK:
			data, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBodyBytes))
			if err != nil {
				return err
			}
			if refusal = apply(resp, data); refusal == nil {
				f.syncs.ok.Inc()
				connected = true
				return nil
			}
		default:
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
			refusal = fmt.Errorf("status %d", resp.StatusCode)
		}
		f.syncs.refused.Inc()
		g.lg.Warn(ctx, "replica_refused", "shard", sh.spec.ID, "kind", f.kind, "target", target, "err", refusal)
		return nil
	})
	if err != nil && g.follows.Err() == nil {
		f.syncs.failed.Inc()
	}
	return connected, err
}

// sync polls GET /v1/grid; a grid over the gateway's buffer is cut short
// and refused.
func (r *gridReplica) sync(ep *url.URL) (bool, error) {
	return r.g.poll(r.sh, &r.follower, ep, gridPath, r.etag, &r.horizon, func(resp *http.Response, data []byte) error {
		snap, err := geoindex.DecodeGrid(data, r.g.cfg.CellDeg)
		if err == nil {
			r.snap.Store(snap)
			r.etag = resp.Header.Get("ETag")
		}
		return err
	})
}

func (r *gridReplica) drop() {
	r.snap.Store(nil)
	r.etag = ""
}
