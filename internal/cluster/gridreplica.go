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
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// Place queries at the gateway (DESIGN.md §15): a cell's verdicts are
// its owner's alone, so the gateway keeps a replica of each shard's
// grid — one follower per shard long-polls its GET /v1/grid — and
// answers with dbserver.Places, the shards' own code, reading each cell
// from its owner's replica: no leg, no merge.

const gridPath = "/v1/grid"

// gridRetry is the pause after a failed grid sync; it doubles with each
// failure in a row, up to legTimeout.
const gridRetry = 50 * time.Millisecond

// gridReplica is the gateway's copy of one shard's grid.
type gridReplica struct {
	started bool          // the follower runs; guarded by Gateway.followMu
	synced  chan struct{} // closed by settle once the first sync settled
	settle  func()
	// snap is nil while the follower is out of sync: the shard's cells
	// answer 502 rather than from a grid nobody follows.
	snap atomic.Pointer[geoindex.Snapshot]

	ok, unchanged, refused, failed *telemetry.Counter
}

func newGridReplica(m *telemetry.Registry, shard string) *gridReplica {
	const help = "Syncs of the gateway's replica of this shard's availability grid, by outcome (ok, unchanged, refused, error)."
	outcome := func(o string) *telemetry.Counter {
		return m.Counter("waldo_cluster_grid_syncs_total", help, "shard", shard, "outcome", o)
	}
	synced := make(chan struct{})
	return &gridReplica{
		synced:    synced,
		settle:    sync.OnceFunc(func() { close(synced) }),
		ok:        outcome("ok"),
		unchanged: outcome("unchanged"),
		refused:   outcome("refused"),
		failed:    outcome("error"),
	}
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
		go g.follow(sh)
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

// follow keeps sh's grid replica until the gateway closes, polling the
// shard's active endpoint. A transport error fails the endpoint over as
// a leg's does, the next one tried at once until each has failed in a
// row; a non-2xx answer or a refused grid is no failover. Any failure
// drops the replica until a sync succeeds, and so does Close.
func (g *Gateway) follow(sh *shardState) {
	defer g.wg.Done()
	r := sh.grid
	defer r.snap.Store(nil)
	var etag string
	var horizon, pause time.Duration
	misses := 0
	for {
		raw, ep := sh.current()
		connected, err := g.syncGrid(sh, ep, &etag, &horizon)
		if g.follows.Err() != nil {
			return
		}
		if connected {
			pause, misses = 0, 0
			r.settle()
			continue
		}
		r.snap.Store(nil)
		etag = ""
		if err != nil {
			g.endpointFailed(g.follows, sh, raw, err, "grid")
			if misses++; misses < len(sh.spec.URLs) {
				continue
			}
		}
		r.settle()
		pause = min(max(2*pause, gridRetry), legTimeout)
		t := time.NewTimer(pause)
		select {
		case <-g.follows.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// syncGrid runs one GET /v1/grid against ep, applies the answer to sh's
// replica and reports whether that is in sync. A conditional poll parks
// until the shard publishes or its horizon passes, so it is allowed that
// horizon plus legTimeout: the bound on how stale a silently partitioned
// replica gets before its cells answer 502.
func (g *Gateway) syncGrid(sh *shardState, ep *url.URL, etag *string, horizon *time.Duration) (bool, error) {
	r := sh.grid
	budget := legTimeout
	if *etag != "" {
		budget += *horizon
	}
	ctx, cancel := context.WithTimeout(g.follows, budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, gridPath, nil)
	if err != nil {
		panic(err) // constant arguments
	}
	if *etag != "" {
		req.Header.Set("If-None-Match", *etag)
	}
	sh.requests.Inc()
	connected := false
	_, err = g.shardDo(ctx, req, ep, nil, func(resp *http.Response) error {
		if ms, err := strconv.ParseInt(resp.Header.Get(dbserver.HorizonHeader), 10, 64); err == nil && ms >= 0 {
			*horizon = time.Duration(ms) * time.Millisecond
		}
		var refusal error
		switch resp.StatusCode {
		case http.StatusNotModified:
			r.unchanged.Inc()
			connected = true
			return nil
		case http.StatusOK:
			// A grid over the gateway's buffer is cut short and refused.
			data, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBodyBytes))
			if err != nil {
				return err
			}
			var snap *geoindex.Snapshot
			if snap, refusal = geoindex.DecodeGrid(data, g.cfg.CellDeg); refusal == nil {
				r.ok.Inc()
				r.snap.Store(snap)
				*etag = resp.Header.Get("ETag")
				connected = true
				return nil
			}
		default:
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
			refusal = fmt.Errorf("status %d", resp.StatusCode)
		}
		r.refused.Inc()
		g.lg.Warn(ctx, "grid_refused", "shard", sh.spec.ID, "err", refusal)
		return nil
	})
	if err != nil && g.follows.Err() == nil {
		r.failed.Inc()
	}
	return connected, err
}
