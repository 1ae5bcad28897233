// Package cluster shards the Waldo spectrum database across processes.
// The paper's pitch is locality — a WSD only needs the model for its own
// neighborhood — which makes the spectrum store naturally partitionable
// by place. This package supplies the three pieces that turn one
// dbserver into a cluster of them (DESIGN.md §12):
//
//   - [Ring]: a deterministic consistent-hash ring with virtual nodes,
//     placing by quantized geo-cell: every channel of a cell lives on the
//     cell's owner. Placement is a pure function of (seed, members), so
//     every gateway — and every test — computes byte-identical ownership.
//
//   - [Node]: one shard process: the dbserver updater+WAL stack, unchanged,
//     serving its journal of store mutation records to the replicas that
//     pull it. A replica applies the stream in order, so its stores and —
//     model construction being deterministic — its descriptors are
//     byte-identical to the primary's at every version it has applied.
//
//   - [Gateway]: the client-facing tier. It terminates the existing WSD
//     API (/v1/model, /v1/readings, /v1/retrain, /v1/export, /v1/stats,
//     /v1/availability, /v1/route, probes), sends each request to the
//     shard owning the place it names, merges what spans shards, answers
//     place queries from its replicas of the owners' availability grids,
//     and fails over to a shard's replicas when its primary stops
//     answering.
//
// The division of durability labor: the WAL (internal/wal) makes a
// single node's acknowledged writes survive its crash; replication makes
// the shard's *service* survive it. The cluster chaos harness
// (internal/e2e.RunClusterCrash) asserts both at once — kill a primary
// mid-load and no acknowledged reading is lost after WAL replay plus
// failover, while the surviving replica serves byte-identical model
// descriptors.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
)

// DefaultCellDeg is the geo-cell quantum, the only one: 0.05° is ~5.5 km of
// latitude, a few cells across the paper's 700 km² metro — coarse enough
// that one wardriving neighborhood stays on one shard, fine enough that a
// metro spreads across the ring. It is the same quantum the availability
// grid indexes by (internal/geoindex owns the constant), so shard
// ownership and availability lookups agree on cell identity.
const DefaultCellDeg = geoindex.DefaultCellDeg

// Cell is a quantized geographic cell, the locality unit of routing. It
// is an alias of the availability grid's cell type: a RouteKey's cell
// and a geoindex lookup's cell are the same coordinate, by construction.
type Cell = geoindex.Cell

// CellOf quantizes a location onto the cell grid. cellDeg ≤ 0 means
// DefaultCellDeg. It delegates to geoindex.CellOf — the routing tier and
// the availability grid must never disagree about which cell a point is
// in, or a gateway would answer a cell from the wrong shard's grid.
func CellOf(p geo.Point, cellDeg float64) Cell {
	return geoindex.CellOf(p, cellDeg)
}

// RouteKey names one TV channel in one geo-cell. Placement is by place:
// [Ring.Owner] ignores Channel, so every channel of a cell lives on the
// cell's owner. Channel stays because an upload's leg is one store.
type RouteKey struct {
	Channel rfenv.Channel
	Cell    Cell
}

func (k RouteKey) String() string {
	return fmt.Sprintf("ch%d@(%d,%d)", int(k.Channel), k.Cell.X, k.Cell.Y)
}

// mix is the splitmix64 finalizer — the same mixer the rest of the repo
// uses for seed derivation (e2e, wardrive). Full-avalanche, so
// sequential xor-mix rounds over the key fields give well-spread ring
// positions.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a node identifier into the hash chain (FNV-1a, then
// mixed by the caller). Pure arithmetic: byte-stable across processes,
// platforms, and restarts.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// placementRule names what keyHash hashes. ConfigVersion folds it in,
// so a cluster re-ringed by a change of rule reads as re-ringed.
const placementRule = "cell"

// keyHash positions a RouteKey on the ring by its cell alone.
func keyHash(seed uint64, k RouteKey) uint64 {
	h := mix(seed ^ 0xc15ca11e57e11a5d)
	h = mix(h ^ uint64(uint32(k.Cell.X)))
	return mix(h ^ uint64(uint32(k.Cell.Y)))
}

// vnodeHash positions one virtual node of a member on the ring.
func vnodeHash(seed uint64, node string, vnode int) uint64 {
	h := mix(seed ^ hashString(node))
	return mix(h ^ uint64(vnode))
}

// ConfigVersion renders a stable fingerprint of a cluster's routing
// configuration — placement rule, seed, vnode count (ringVNodes), cell
// quantum (DefaultCellDeg), and the member list with its node URLs. Gateways
// stamp it on every proxied response as X-Waldo-Cluster-Version, and
// clients cache it next to model descriptors, so a fleet can detect that
// it is talking to a re-ringed cluster (and drop caches placed under the
// old topology). The vnode count and the quantum, both constants, stay in
// the hash so a cluster keeps the fingerprint its clients already cache
// (TestConfigVersionPinned).
func ConfigVersion(seed uint64, shards []ShardSpec) string {
	h := mix(seed ^ ringVNodes)
	h = mix(h ^ hashString(placementRule))
	h = mix(h ^ math.Float64bits(DefaultCellDeg))
	ids := make([]string, 0, len(shards))
	byID := make(map[string]ShardSpec, len(shards))
	for _, s := range shards {
		ids = append(ids, s.ID)
		byID[s.ID] = s
	}
	sort.Strings(ids)
	for _, id := range ids {
		h = mix(h ^ hashString(id))
		for _, u := range byID[id].URLs {
			h = mix(h ^ hashString(u))
		}
	}
	return fmt.Sprintf("%016x", h)
}
