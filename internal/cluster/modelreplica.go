package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Model requests at the gateway (DESIGN.md §12): the gateway keeps a
// copy of the descriptor of every store its copy of the owner's grid
// names, revalidated on each new grid (gridreplica.go), and answers
// /v1/model and /v1/model/watch from it with dbserver.Models, the
// shards' own code: no leg. A store with no copy in sync is forwarded.

const (
	modelPath      = "/v1/model"
	modelWatchPath = "/v1/model/watch"
)

// modelKey names one store of a shard.
type modelKey struct {
	ch   rfenv.Channel
	kind sensor.Kind
}

// model returns sh's copy of the store key names, nil if no grid has
// named it.
func (sh *shardState) model(key modelKey) *replica[*dbserver.Descriptor] {
	sh.modelMu.Lock()
	defer sh.modelMu.Unlock()
	return sh.models[key]
}

// revalidate brings sh's copy of key's descriptor in line with the shard
// at ep by one conditional GET /v1/model, which never parks: a 304 keeps
// the copy, a 200 that passes descriptorOf replaces it, and any other
// answer drops it until the next grid. Versions count retrains per
// server, so a promoted replica can reach the primary's version from
// another history: only the ETag names the bytes, and every named store
// is asked, not only those whose version moved.
func (sh *shardState) revalidate(ctx context.Context, g *Gateway, ep *url.URL, key modelKey, horizon time.Duration) error {
	sh.modelMu.Lock()
	rep := sh.models[key]
	if rep == nil {
		rep = newReplica[*dbserver.Descriptor]()
		sh.models[key] = rep
	}
	sh.modelMu.Unlock()
	cur := rep.load()
	target := fmt.Sprintf("%s?channel=%d&sensor=%d", modelPath, int(key.ch), int(key.kind))
	next, err := refresh(ctx, g, sh, ep, target, cur, legTimeout, sh.modelSyncs, func(h http.Header, data []byte) (*held[*dbserver.Descriptor], error) {
		return descriptorOf(key, h, data, horizon)
	})
	if err == nil && next != cur {
		rep.set(next)
	}
	return err
}

// dropModels takes sh's descriptor copies but those of keep out of sync.
func (sh *shardState) dropModels(keep []modelKey) {
	sh.modelMu.Lock()
	defer sh.modelMu.Unlock()
	for key, rep := range sh.models {
		if rep.load() != nil && !slices.Contains(keep, key) {
			rep.set(nil)
		}
	}
}

// A shardState is a gateway's dbserver.ModelView of its shard: each
// store from its replica, ErrNotHeld while there is none in sync.

func (sh *shardState) Descriptor(ch rfenv.Channel, kind sensor.Kind) (*dbserver.Descriptor, bool, error) {
	if c := sh.model(modelKey{ch, kind}).load(); c != nil {
		return c.val, false, nil
	}
	return nil, false, dbserver.ErrNotHeld
}

// Changed is asked only for a store whose copy was just read, and a
// store keeps its replica once a grid has named it.
func (sh *shardState) Changed(ch rfenv.Channel, kind sensor.Kind) <-chan struct{} {
	return sh.model(modelKey{ch, kind}).changed()
}

func (sh *shardState) Horizon(ch rfenv.Channel, kind sensor.Kind) (time.Duration, bool) {
	if c := sh.model(modelKey{ch, kind}).load(); c != nil {
		return c.horizon, true
	}
	return 0, false
}

func (g *Gateway) handleModel(w http.ResponseWriter, r *http.Request) {
	g.serveModel(w, r, g.models.Fetch)
}

func (g *Gateway) handleModelWatch(w http.ResponseWriter, r *http.Request) {
	g.serveModel(w, r, g.models.Watch)
}

// serveModel answers a model request from the owner's replica of the
// store, or forwards it to the owner when that holds none in sync. The
// query is parsed once, for the route key and the answer both.
func (g *Gateway) serveModel(w http.ResponseWriter, r *http.Request, answer func(http.ResponseWriter, *http.Request, url.Values, dbserver.ModelView) bool) {
	q := r.URL.Query()
	key, err := g.routeKey(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sh := g.shardFor(key)
	w.Header().Set(ClusterVersionHeader, g.version)
	w.Header().Set(ShardHeader, sh.spec.ID)
	if !answer(w, r, q, sh) {
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

// descriptorOf checks a 200's descriptor before a copy keeps it, with
// the horizon the grid poll stated: the validator must name these bytes
// of this store, and they must decode.
func descriptorOf(key modelKey, h http.Header, data []byte, horizon time.Duration) (*held[*dbserver.Descriptor], error) {
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
	return &held[*dbserver.Descriptor]{&dbserver.Descriptor{Version: version, ETag: etag, Data: data}, etag, horizon}, nil
}

// awaitRetrain holds a forwarded retrain's 200 until sh's copy of the
// retrained store, if it has one, holds the version the shard
// reported — a client that retrains and then fetches sees the new model,
// even when a sync answered before the retrain is still in flight — for
// up to legTimeout, past which the copy is dropped and the store's
// requests forward until the next grid.
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
