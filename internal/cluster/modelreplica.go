package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Model requests at the gateway (DESIGN.md §12): the gateway keeps a
// replica of each store descriptor it has forwarded a 200 for, followed
// through the shard's own GET /v1/model/watch, and answers /v1/model and
// /v1/model/watch from it with dbserver.Models, the shards' own code: no
// leg. A store with no replica in sync is forwarded as before.

const (
	modelPath      = "/v1/model"
	modelWatchPath = "/v1/model/watch"
)

// modelKey names one store of a shard.
type modelKey struct {
	ch   rfenv.Channel
	kind sensor.Kind
}

// modelReplica is the gateway's copy of one shard store's descriptor.
type modelReplica struct {
	follower
	g      *Gateway
	sh     *shardState
	key    modelKey
	target string // the follower's watch: path and query

	// cur is nil while the replica is out of sync: the store's requests
	// are forwarded. horizon is the owner's stated watch horizon in ns,
	// -1 until it states one.
	cur     atomic.Pointer[dbserver.Descriptor]
	horizon atomic.Int64

	mu   sync.Mutex
	wake chan struct{} // closed and replaced on each change of cur
}

func (sh *shardState) model(key modelKey) *modelReplica {
	sh.modelMu.Lock()
	defer sh.modelMu.Unlock()
	return sh.models[key]
}

// A shardState is a gateway's dbserver.ModelView of its shard: each
// store from its replica, ErrNotHeld while there is none in sync.

func (sh *shardState) Descriptor(ch rfenv.Channel, kind sensor.Kind) (*dbserver.Descriptor, bool, error) {
	if r := sh.model(modelKey{ch, kind}); r != nil {
		if d := r.cur.Load(); d != nil {
			return d, false, nil
		}
	}
	return nil, false, dbserver.ErrNotHeld
}

func (sh *shardState) Changed(ch rfenv.Channel, kind sensor.Kind) <-chan struct{} {
	if r := sh.model(modelKey{ch, kind}); r != nil {
		return r.changed()
	}
	return closedChan
}

func (sh *shardState) Horizon(ch rfenv.Channel, kind sensor.Kind) (time.Duration, bool) {
	if r := sh.model(modelKey{ch, kind}); r != nil {
		h := r.horizon.Load()
		return time.Duration(h), h >= 0
	}
	return 0, false
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (g *Gateway) handleModel(w http.ResponseWriter, r *http.Request) {
	g.serveModel(w, r, g.models.Fetch)
}

func (g *Gateway) handleModelWatch(w http.ResponseWriter, r *http.Request) {
	g.serveModel(w, r, g.models.Watch)
}

// serveModel answers a model request from the owner's replica of the
// store, or forwards it to the owner when that holds none in sync.
func (g *Gateway) serveModel(w http.ResponseWriter, r *http.Request, answer func(http.ResponseWriter, *http.Request, dbserver.ModelView) bool) {
	key, err := g.routeKey(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sh := g.shardFor(key)
	w.Header().Set(ClusterVersionHeader, g.version)
	w.Header().Set(ShardHeader, sh.spec.ID)
	if !answer(w, r, sh) {
		g.forward(w, r, sh, nil)
	}
}

// storeOf reads the store a model request or retrain names; the shard
// answered it, so it parses.
func storeOf(q url.Values) (modelKey, bool) {
	ch, err1 := strconv.Atoi(q.Get("channel"))
	kind, err2 := strconv.Atoi(q.Get("sensor"))
	return modelKey{rfenv.Channel(ch), sensor.Kind(kind)}, err1 == nil && err2 == nil
}

// descriptorOf checks a 200's descriptor before a replica keeps it: the
// validator must name these bytes of this store, and they must decode.
func descriptorOf(key modelKey, h http.Header, data []byte) (*dbserver.Descriptor, error) {
	version, err := strconv.Atoi(h.Get("X-Waldo-Model-Version"))
	if err != nil {
		return nil, fmt.Errorf("bad model version %q", h.Get("X-Waldo-Model-Version"))
	}
	etag := h.Get("ETag")
	if etag != dbserver.ModelETag(key.ch, key.kind, version, data) {
		return nil, fmt.Errorf("ETag %s does not name the %d bytes", etag, len(data))
	}
	if _, err := core.DecodeModel(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	return &dbserver.Descriptor{Version: version, ETag: etag, Data: data}, nil
}

var errNoHorizon = errors.New("the shard states no watch horizon: it predates model replicas")

// followModel starts following sh's store from a 200 the gateway
// forwarded for it — h and data are that answer's, and seed the replica
// — unless the store is followed already or the answer is refused. A
// /v1/model answer states no horizon, so until the follower's first
// sync watches on the store are forwarded.
func (g *Gateway) followModel(sh *shardState, r *http.Request, h http.Header, data []byte) {
	key, ok := storeOf(r.URL.Query())
	if !ok || sh.model(key) != nil {
		return
	}
	d, err := descriptorOf(key, h, data)
	horizon := int64(-1)
	if r.URL.Path == modelWatchPath {
		if ms, perr := strconv.ParseInt(h.Get(dbserver.HorizonHeader), 10, 64); perr == nil && ms >= 0 {
			horizon = int64(time.Duration(ms) * time.Millisecond)
		} else if err == nil {
			err = errNoHorizon
		}
	}
	if err != nil {
		sh.modelSyncs.refused.Inc()
		g.lg.Warn(r.Context(), "replica_refused", "shard", sh.spec.ID, "kind", "model", "target", r.URL.RequestURI(), "err", err)
		return
	}
	rep := &modelReplica{
		follower: follower{kind: "model", retire: true, settle: func() {}, syncs: sh.modelSyncs},
		g:        g, sh: sh, key: key,
		target: fmt.Sprintf("%s?channel=%d&sensor=%d", modelWatchPath, int(key.ch), int(key.kind)),
		wake:   make(chan struct{}),
	}
	rep.cur.Store(d)
	rep.horizon.Store(horizon)
	g.followMu.Lock()
	defer g.followMu.Unlock()
	if g.follows.Err() != nil {
		return
	}
	sh.modelMu.Lock()
	defer sh.modelMu.Unlock()
	if sh.models[key] != nil {
		return
	}
	sh.models[key] = rep
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.follow(sh, &rep.follower, rep)
		sh.modelMu.Lock()
		delete(sh.models, key) // retired: the next forwarded 200 starts another
		sh.modelMu.Unlock()
	}()
}

func (r *modelReplica) changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wake
}

// set replaces the held descriptor (nil: out of sync) and wakes every
// watch parked on the replica.
func (r *modelReplica) set(d *dbserver.Descriptor) {
	r.cur.Store(d)
	r.mu.Lock()
	close(r.wake)
	r.wake = make(chan struct{})
	r.mu.Unlock()
}

func (r *modelReplica) drop() { r.set(nil) }

// sync watches the store on the shard: parked on the held descriptor
// once the owner has stated its horizon, else answered at once.
func (r *modelReplica) sync(ep *url.URL) (bool, error) {
	etag, horizon := "", time.Duration(r.horizon.Load())
	if d := r.cur.Load(); d != nil && horizon >= 0 {
		etag = d.ETag
	}
	return r.g.poll(r.sh, &r.follower, ep, r.target, etag, &horizon, func(resp *http.Response, data []byte) error {
		if resp.Header.Get(dbserver.HorizonHeader) == "" {
			return errNoHorizon
		}
		d, err := descriptorOf(r.key, resp.Header, data)
		if err == nil {
			r.horizon.Store(int64(horizon))
			r.set(d)
		}
		return err
	})
}

// awaitRetrain holds a forwarded retrain's 200 until sh's replica of the
// retrained store, if it follows one, holds the version the shard
// reported — a client that retrains and then fetches sees the new model
// — for up to legTimeout, past which the replica is dropped and the
// store's requests forward until it resyncs.
func (g *Gateway) awaitRetrain(sh *shardState, r *http.Request, resp *http.Response) {
	if resp.StatusCode != http.StatusOK || r.URL.Path != "/v1/retrain" {
		return
	}
	key, ok := storeOf(r.URL.Query())
	version, err := strconv.Atoi(resp.Header.Get("X-Waldo-Model-Version"))
	rep := sh.model(key)
	if !ok || err != nil || rep == nil {
		return
	}
	t := time.NewTimer(legTimeout)
	defer t.Stop()
	for {
		wake := rep.changed()
		if d := rep.cur.Load(); d == nil || d.Version >= version {
			return
		}
		select {
		case <-wake:
		case <-t.C:
			rep.drop()
			return
		}
	}
}
