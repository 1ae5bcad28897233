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
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// Place queries at the gateway (DESIGN.md §12 "Replicas"): a cell's
// verdicts are its owner's alone, so the gateway keeps a copy of each
// shard's grid — one follower per shard, started by NewGateway,
// long-polls its GET /v1/grid — and answers with dbserver.Places, the
// shards' own code, reading each cell from its owner's copy: no leg, no
// merge. Every retrain republishes the grid, so each new one also
// revalidates the copies of the descriptors of the stores it names
// (modelreplica.go), and the parked poll is the gateway's health check:
// a dead endpoint fails over when it fails.

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

// A replica is the gateway's copy of something one shard serves: its
// grid, or one store's model descriptor.
type replica[T any] struct {
	// cur is nil while the copy is out of sync: the shard's cells answer
	// 502 and the store's requests forward.
	cur atomic.Pointer[held[T]]

	mu   sync.Mutex
	wake chan struct{} // closed and replaced on each change of cur
}

// held is one copy as a shard served it: the decoded value, its
// validator and the horizon the shard's grid poll stated.
type held[T any] struct {
	val     T
	etag    string
	horizon time.Duration
}

func newReplica[T any]() *replica[T] {
	return &replica[T]{wake: make(chan struct{})}
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

// follow starts the follower of sh's copies, which syncs from the
// shard's active endpoint. A transport error fails the endpoint over as
// a leg's does, the next tried at once until each has failed in a row;
// a non-2xx grid or a refused one is no failover. Any failure drops
// every copy of the shard until a sync succeeds, and so does Close.
func (sh *shardState) follow(g *Gateway) *follower {
	misses := 0
	return startFollower(func(ctx context.Context) syncOutcome {
		raw, ep := sh.current()
		connected, err := sh.sync(ctx, g, ep)
		switch {
		case ctx.Err() != nil:
			return stopFollowing
		case connected:
			misses = 0
			return inSync
		}
		sh.drop()
		if err == nil {
			return retryLater
		}
		g.endpointFailed(ctx, sh, raw, err, "follower")
		if misses++; misses < len(sh.spec.URLs) {
			return retryNow
		}
		return retryLater
	})
}

// A follower is the one loop that keeps every copy in the cluster: the
// gateway's of each shard (shardState.follow), a replica's of its
// primary's journal (Node.pull). Its goroutine runs step until close or
// stopFollowing, pausing after a retryLater — followRetry, doubling with
// each in a row, up to legTimeout — so a dead remote cannot spin it.
type follower struct {
	ctx  context.Context // done once the follower is stopped
	stop context.CancelFunc
	done chan struct{}
}

// syncOutcome is how one step of a follower left its copy.
type syncOutcome int

const (
	inSync     syncOutcome = iota
	retryNow               // out of sync, another endpoint to try
	retryLater             // out of sync: pause first
	stopFollowing
)

func startFollower(step func(ctx context.Context) syncOutcome) *follower {
	ctx, stop := context.WithCancel(context.Background())
	f := &follower{ctx, stop, make(chan struct{})}
	go func() {
		defer close(f.done)
		defer stop()
		var pause time.Duration
		for ctx.Err() == nil {
			switch step(ctx) {
			case inSync:
				pause = 0
			case stopFollowing:
				return
			case retryLater:
				pause = min(max(2*pause, followRetry), legTimeout)
				select {
				case <-ctx.Done():
				case <-time.After(pause):
				}
			}
		}
	}()
	return f
}

// close stops the follower and waits until its last step has returned.
// Idempotent.
func (f *follower) close() {
	f.stop()
	<-f.done
}

// sync polls the shard's grid on ep, conditional on the held copy and
// then allowed its stated horizon on top of legTimeout — the bound on how
// stale a silently partitioned shard's copies get. A new grid, which must
// state a horizon, is kept, the copy of every store it names revalidated
// and the others dropped. It reports whether the copies are in sync
// after it; an error is a transport failure.
func (sh *shardState) sync(ctx context.Context, g *Gateway, ep *url.URL) (bool, error) {
	cur := sh.grid.load()
	budget := legTimeout
	if cur != nil {
		budget += cur.horizon
	}
	next, err := refresh(ctx, g, sh, ep, gridPath, cur, budget, sh.gridSyncs, func(h http.Header, data []byte) (*held[*geoindex.Snapshot], error) {
		ms, err := strconv.ParseInt(h.Get(dbserver.HorizonHeader), 10, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("bad or missing %s %q", dbserver.HorizonHeader, h.Get(dbserver.HorizonHeader))
		}
		snap, err := geoindex.DecodeGrid(data)
		if err != nil {
			return nil, err
		}
		return &held[*geoindex.Snapshot]{snap, h.Get("ETag"), time.Duration(ms) * time.Millisecond}, nil
	})
	if next == nil || next == cur {
		return next != nil, err
	}
	sh.grid.set(next)
	var named []modelKey
	next.val.EachStore(func(ch rfenv.Channel, kind sensor.Kind) { named = append(named, modelKey{ch, kind}) })
	for _, key := range named {
		if err := sh.revalidate(ctx, g, ep, key, next.horizon); err != nil {
			return false, err
		}
	}
	sh.dropModels(named)
	return true, nil
}

// drop takes every copy of sh out of sync.
func (sh *shardState) drop() {
	sh.grid.set(nil)
	sh.dropModels(nil)
}

// refresh runs one GET of target on ep, conditional on cur and allowed
// budget, and counts its outcome in syncs. It returns cur on a 304, the
// copy check makes of a 200, and nil on any other answer or a 200 check
// refuses (its body cut short at the gateway's buffer); an error is a
// transport failure.
func refresh[T any](ctx context.Context, g *Gateway, sh *shardState, ep *url.URL, target string, cur *held[T], budget time.Duration,
	syncs *replicaSyncs, check func(h http.Header, data []byte) (*held[T], error)) (*held[T], error) {
	pctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	if cur != nil {
		req.Header.Set("If-None-Match", cur.etag)
	}
	var next *held[T]
	_, err = g.shardDo(pctx, req, ep, nil, true, func(resp *http.Response) error {
		var refusal error
		switch {
		case resp.StatusCode == http.StatusNotModified && cur != nil:
			syncs.unchanged.Inc()
			next = cur
			return nil
		case resp.StatusCode == http.StatusOK:
			data, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBodyBytes))
			if err != nil {
				return err
			}
			if next, refusal = check(resp.Header, data); refusal == nil {
				syncs.ok.Inc()
				return nil
			}
		default:
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
			refusal = fmt.Errorf("status %d", resp.StatusCode)
		}
		syncs.refused.Inc()
		g.lg.Warn(ctx, "replica_refused", "shard", sh.spec.ID, "target", target, "err", refusal)
		return nil
	})
	if err != nil && ctx.Err() == nil {
		syncs.failed.Inc()
	}
	return next, err
}
