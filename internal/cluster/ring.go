package cluster

import (
	"fmt"
	"sort"
)

// RingConfig parameterizes ring construction. Two rings built from the
// same config and member list place every key identically — in this
// process, after a restart, or on another machine.
type RingConfig struct {
	// VNodes is the number of virtual nodes per member; more vnodes mean
	// lower placement skew at the cost of a larger (still tiny) table.
	// 0 means 128.
	VNodes int
	// Seed perturbs every ring position. Deploys fix it once; changing
	// it reshuffles all placements (a full data migration).
	Seed uint64
}

// Ring is an immutable consistent-hash ring: each member contributes
// VNodes points on a 64-bit circle, and a key belongs to the member
// owning the first point at or after the key's hash (wrapping at the
// top). Membership changes are modeled by building a new Ring with the
// new member list — the consistent-hashing guarantee is that the new
// ring moves only ~1/N of the keyspace, and every moved key moves to or
// from the changed member, never between surviving ones (the ring tests
// pin both properties).
type Ring struct {
	cfg    RingConfig
	nodes  []string
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position and the index of its owner
// in Ring.nodes.
type ringPoint struct {
	hash uint64
	node int32
}

// NewRing builds a ring over the given members. The member list may
// arrive in any order; it is sorted before placement so that
// ownership depends only on the set.
func NewRing(cfg RingConfig, nodes []string) (*Ring, error) {
	if cfg.VNodes <= 0 {
		cfg.VNodes = 128
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring node %q", sorted[i])
		}
	}
	r := &Ring{
		cfg:    cfg,
		nodes:  sorted,
		points: make([]ringPoint, 0, cfg.VNodes*len(sorted)),
	}
	for ni, node := range sorted {
		for v := 0; v < cfg.VNodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(cfg.Seed, node, v), node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit hash collision between vnodes is vanishingly
		// rare; break the tie by owner index so placement stays
		// deterministic even then.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the members in sorted order (a copy).
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// VNodes returns the per-member virtual node count in effect.
func (r *Ring) VNodes() int { return r.cfg.VNodes }

// Owner returns the member owning a key.
func (r *Ring) Owner(k RouteKey) string {
	return r.nodes[r.points[r.search(keyHash(r.cfg.Seed, k))].node]
}

// search returns the index of the first point at or after h, wrapping to
// 0 past the top of the circle.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
