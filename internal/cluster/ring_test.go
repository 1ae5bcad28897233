package cluster

import (
	"fmt"
	"testing"

	"github.com/wsdetect/waldo/internal/rfenv"
)

// testKeys spreads n route keys over the TV band and a metro-scale cell
// grid, deterministically.
func testKeys(n int) []RouteKey {
	keys := make([]RouteKey, n)
	for i := range keys {
		keys[i] = RouteKey{
			Channel: rfenv.Channel(21 + i%30),
			Cell:    Cell{X: int32(i / 97), Y: int32(i % 97)},
		}
	}
	return keys
}

// TestRingDistribution checks the load-balance claim the vnode count is
// chosen for: across 10k keys on a 4-shard ring at the default 128
// vnodes, no shard's share deviates from the mean by 10% or more. And
// placement is by place: every channel of a cell has one owner.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"s0", "s1", "s2", "s3"}
	ring, err := NewRing(RingConfig{Seed: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(10000)
	for _, k := range keys {
		counts[ring.Owner(k)]++
	}
	mean := float64(len(keys)) / float64(len(nodes))
	for _, n := range nodes {
		dev := float64(counts[n]) - mean
		if dev < 0 {
			dev = -dev
		}
		t.Logf("%s: %d keys (dev %.1f%%)", n, counts[n], 100*dev/mean)
		if dev >= 0.10*mean {
			t.Errorf("node %s owns %d keys, deviates %.1f%% from mean %.0f (want <10%%)",
				n, counts[n], 100*dev/mean, mean)
		}
	}
	for _, k := range keys[:1000] {
		want := ring.Owner(RouteKey{Cell: k.Cell})
		for ch := rfenv.Channel(14); ch <= 51; ch++ {
			if got := ring.Owner(RouteKey{Channel: ch, Cell: k.Cell}); got != want {
				t.Fatalf("cell %+v: channel %d on %q, channel 0 on %q", k.Cell, ch, got, want)
			}
		}
	}
}

// TestRingDeterminism checks that placement is a pure function of
// (config, member set): rebuilding the ring — also from a permuted
// member list, as after a process restart with a reordered flag — yields
// identical owners, and specific golden keys stay pinned to the owners
// every deployed gateway must agree on.
func TestRingDeterminism(t *testing.T) {
	cfg := RingConfig{Seed: 42}
	a, err := NewRing(cfg, []string{"s0", "s1", "s2", "s3", "s4"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(cfg, []string{"s3", "s1", "s4", "s0", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(10000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("key %v: owner %q on ring A, %q on rebuilt ring B", k, ao, bo)
		}
	}
	// Golden pins: if these move, placement changed and every deployed
	// cluster re-rings (a full data migration). Do not update casually.
	// Re-pinned once when placement went from (channel, cell) to cell.
	golden := []struct {
		key  RouteKey
		want string
	}{
		{RouteKey{Channel: 21, Cell: Cell{X: 0, Y: 0}}, "s4"},
		{RouteKey{Channel: 39, Cell: Cell{X: 674, Y: -1688}}, "s3"},
		{RouteKey{Channel: 51, Cell: Cell{X: -3, Y: 7}}, "s0"},
	}
	for _, g := range golden {
		if got := a.Owner(g.key); got != g.want {
			t.Errorf("golden key %v: owner %q, want %q", g.key, got, g.want)
		}
	}
}

// TestRingMovement checks the consistent-hashing contract on membership
// change: adding or removing one of N shards moves roughly 1/N of keys,
// and every moved key moves to (join) or from (leave) the changed shard
// — never between surviving shards.
func TestRingMovement(t *testing.T) {
	cfg := RingConfig{Seed: 7}
	var nodes []string
	for i := 0; i < 8; i++ {
		nodes = append(nodes, fmt.Sprintf("shard-%d", i))
	}
	base, err := NewRing(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(10000)

	t.Run("join", func(t *testing.T) {
		grown, err := NewRing(cfg, append(append([]string(nil), nodes...), "shard-8"))
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys {
			was, now := base.Owner(k), grown.Owner(k)
			if was == now {
				continue
			}
			moved++
			if now != "shard-8" {
				t.Fatalf("key %v moved %q→%q: joins must only move keys to the new shard", k, was, now)
			}
		}
		checkMovedFraction(t, moved, len(keys), len(nodes)+1)
	})

	t.Run("leave", func(t *testing.T) {
		shrunk, err := NewRing(cfg, nodes[:len(nodes)-1])
		if err != nil {
			t.Fatal(err)
		}
		gone := nodes[len(nodes)-1]
		moved := 0
		for _, k := range keys {
			was, now := base.Owner(k), shrunk.Owner(k)
			if was == now {
				continue
			}
			moved++
			if was != gone {
				t.Fatalf("key %v moved %q→%q: leaves must only move the departed shard's keys", k, was, now)
			}
		}
		checkMovedFraction(t, moved, len(keys), len(nodes))
	})
}

// checkMovedFraction asserts moved ≈ total/n: more than zero (the change
// did something) and at most twice the ideal share (consistent hashing,
// not rehash-the-world).
func checkMovedFraction(t *testing.T, moved, total, n int) {
	t.Helper()
	ideal := total / n
	t.Logf("moved %d of %d keys (ideal %d)", moved, total, ideal)
	if moved == 0 {
		t.Fatal("no keys moved on membership change")
	}
	if moved > 2*ideal {
		t.Errorf("moved %d keys, want ≤ %d (2× the ideal 1/%d share)", moved, 2*ideal, n)
	}
}
