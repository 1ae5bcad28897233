package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
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
// leg. A store with no replica in sync is forwarded.

const (
	modelPath      = "/v1/model"
	modelWatchPath = "/v1/model/watch"
)

// modelKey names one store of a shard.
type modelKey struct {
	ch   rfenv.Channel
	kind sensor.Kind
}

func (sh *shardState) model(key modelKey) *replica[*dbserver.Descriptor] {
	sh.modelMu.Lock()
	defer sh.modelMu.Unlock()
	return sh.models[key]
}

// A shardState is a gateway's dbserver.ModelView of its shard: each
// store from its replica, ErrNotHeld while there is none in sync.

func (sh *shardState) Descriptor(ch rfenv.Channel, kind sensor.Kind) (*dbserver.Descriptor, bool, error) {
	if c := sh.model(modelKey{ch, kind}).load(); c != nil {
		return c.val, false, nil
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
	if c := sh.model(modelKey{ch, kind}).load(); c != nil {
		return c.horizon, true
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

// followModel starts following sh's store that r names once the shard
// answered r 200, unless the store is followed already. The follower's
// first sync fetches the descriptor; until it lands, the store's
// requests are forwarded.
func (g *Gateway) followModel(sh *shardState, r *http.Request) {
	key, ok := storeOf(r.URL.Query())
	if !ok || sh.model(key) != nil {
		return
	}
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
	target := fmt.Sprintf("%s?channel=%d&sensor=%d", modelWatchPath, int(key.ch), int(key.kind))
	rep := newReplica(sh, "model", target, func(h http.Header, data []byte) (*dbserver.Descriptor, error) {
		return descriptorOf(key, h, data)
	}, sh.modelSyncs)
	sh.models[key] = rep
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		rep.follow(g)
		sh.modelMu.Lock()
		delete(sh.models, key) // retired: the next forwarded 200 starts another
		sh.modelMu.Unlock()
	}()
}

// awaitRetrain holds a forwarded retrain's 200 until sh's replica of the
// retrained store, if it follows one, holds the version the shard
// reported — a client that retrains and then fetches sees the new model,
// even when a sync answered before the retrain is still in flight — for
// up to legTimeout, past which the replica is dropped and the store's
// requests forward until it resyncs.
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
		if c := rep.load(); c != nil && c.val.Version >= version {
			return
		}
		select {
		case <-wake:
		case <-t.C:
			rep.set(nil)
			return
		}
	}
}
