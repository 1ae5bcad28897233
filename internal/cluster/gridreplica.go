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

// Place queries at the gateway (DESIGN.md §12 "Replicas"): a cell's
// verdicts are its owner's alone, so the gateway keeps a replica of each
// shard's grid — one follower per shard, started by NewGateway,
// long-polls its GET /v1/grid — and answers with dbserver.Places, the
// shards' own code, reading each cell from its owner's replica: no leg,
// no merge. The same replica type keeps model descriptors
// (modelreplica.go), and its parked polls are the gateway's health
// check: a dead endpoint fails over when one of them fails.

const gridPath = "/v1/grid"

// followRetry is the pause after a failed sync; it doubles with each
// failure in a row, up to legTimeout.
const followRetry = 50 * time.Millisecond

// replicaSyncs is waldo_cluster_replica_syncs_total for one shard and kind.
type replicaSyncs struct{ ok, unchanged, refused, failed *telemetry.Counter }

func newReplicaSyncs(m *telemetry.Registry, shard, kind string) *replicaSyncs {
	const help = "Syncs of the gateway's replicas of this shard's grid or model descriptors, by kind and outcome (ok, unchanged, refused, error)."
	outcome := func(o string) *telemetry.Counter {
		return m.Counter("waldo_cluster_replica_syncs_total", help, "shard", shard, "kind", kind, "outcome", o)
	}
	return &replicaSyncs{ok: outcome("ok"), unchanged: outcome("unchanged"), refused: outcome("refused"), failed: outcome("error")}
}

// A replica is the gateway's copy of something one shard serves — its
// grid, or one store's model descriptor — kept by one follow loop that
// long-polls target on the shard's active endpoint.
type replica[T any] struct {
	sh     *shardState
	kind   string                                      // "grid" or "model": the series' kind label
	target string                                      // path and query
	check  func(h http.Header, data []byte) (T, error) // a 200's bytes, before they are kept
	retire bool                                        // a refused sync ends the follower (models), else it retries (grids)
	syncs  *replicaSyncs

	// cur is nil while the follower is out of sync: the shard's cells
	// answer 502 and the store's requests forward.
	cur atomic.Pointer[held[T]]

	mu   sync.Mutex
	wake chan struct{} // closed and replaced on each change of cur
}

// held is one copy as a shard served it: the decoded value, its
// validator and the horizon the shard stated.
type held[T any] struct {
	val     T
	etag    string
	horizon time.Duration
}

func newReplica[T any](sh *shardState, kind, target string, check func(http.Header, []byte) (T, error), syncs *replicaSyncs) *replica[T] {
	return &replica[T]{sh: sh, kind: kind, target: target, check: check, retire: kind == "model", syncs: syncs, wake: make(chan struct{})}
}

// load returns the held copy, nil while out of sync or with no replica.
func (r *replica[T]) load() *held[T] {
	if r == nil {
		return nil
	}
	return r.cur.Load()
}

func (r *replica[T]) changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wake
}

// set replaces the held copy (nil: out of sync) and wakes everything
// parked on the replica.
func (r *replica[T]) set(c *held[T]) {
	r.cur.Store(c)
	r.mu.Lock()
	close(r.wake)
	r.wake = make(chan struct{})
	r.mu.Unlock()
}

func (g *Gateway) handleAvailability(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(ClusterVersionHeader, g.version)
	g.places.Availability(w, r, g.ownersGrid(w.Header()))
}

func (g *Gateway) handleRoute(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(ClusterVersionHeader, g.version)
	g.places.Route(w, r, g.ownersGrid(w.Header()))
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
		grid := g.shards[id].grid.load()
		if grid == nil {
			return nil, fmt.Errorf("shard %s unavailable: its grid replica is not in sync", id)
		}
		owners, snaps = slices.Insert(owners, i, id), slices.Insert(snaps, i, grid.val)
		h.Set(ShardHeader, strings.Join(owners, ","))
		return grid.val, nil
	}
}

// follow keeps r until the gateway closes, syncing from the shard's
// active endpoint. A transport error fails the endpoint over as a leg's
// does, the next one tried at once until each has failed in a row; a
// non-2xx answer or a refused copy is no failover, and ends a retiring
// follower. Any failure drops the copy until a sync succeeds, and so
// does the end.
func (r *replica[T]) follow(g *Gateway) {
	defer r.set(nil)
	var pause time.Duration
	misses := 0
	for {
		raw, ep := r.sh.current()
		connected, err := r.sync(g, ep)
		if g.follows.Err() != nil {
			return
		}
		if connected {
			pause, misses = 0, 0
			continue
		}
		r.set(nil)
		if err != nil {
			g.endpointFailed(g.follows, r.sh, raw, err, r.kind)
			if misses++; misses < len(r.sh.spec.URLs) {
				continue
			}
		} else if r.retire {
			return
		}
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

// sync runs one exchange with ep: GET target, conditional on the held
// copy and then allowed its stated horizon on top of legTimeout — the
// bound on how stale a silently partitioned replica gets. It keeps a 200
// that states a horizon and passes check (its body cut short at the
// gateway's buffer), counts the outcome and reports whether the copy is
// in sync after it; an error is a transport failure.
func (r *replica[T]) sync(g *Gateway, ep *url.URL) (bool, error) {
	cur := r.cur.Load()
	budget := legTimeout
	if cur != nil {
		budget += cur.horizon
	}
	ctx, cancel := context.WithTimeout(g.follows, budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.target, nil)
	if err != nil {
		return false, err
	}
	if cur != nil {
		req.Header.Set("If-None-Match", cur.etag)
	}
	connected := false
	_, err = g.shardDo(ctx, req, ep, nil, true, func(resp *http.Response) error {
		var refusal error
		switch {
		case resp.StatusCode == http.StatusNotModified && cur != nil:
			r.syncs.unchanged.Inc()
			connected = true
			return nil
		case resp.StatusCode == http.StatusOK:
			data, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBodyBytes))
			if err != nil {
				return err
			}
			ms, perr := strconv.ParseInt(resp.Header.Get(dbserver.HorizonHeader), 10, 64)
			var v T
			if perr != nil || ms < 0 {
				refusal = fmt.Errorf("bad or missing %s %q", dbserver.HorizonHeader, resp.Header.Get(dbserver.HorizonHeader))
			} else if v, refusal = r.check(resp.Header, data); refusal == nil {
				r.set(&held[T]{val: v, etag: resp.Header.Get("ETag"), horizon: time.Duration(ms) * time.Millisecond})
				r.syncs.ok.Inc()
				connected = true
				return nil
			}
		default:
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
			refusal = fmt.Errorf("status %d", resp.StatusCode)
		}
		r.syncs.refused.Inc()
		g.lg.Warn(ctx, "replica_refused", "shard", r.sh.spec.ID, "kind", r.kind, "target", r.target, "err", refusal)
		return nil
	})
	if err != nil && g.follows.Err() == nil {
		r.syncs.failed.Inc()
	}
	return connected, err
}
