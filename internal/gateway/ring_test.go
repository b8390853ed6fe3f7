package gateway

import (
	"fmt"
	"testing"
)

// TestRingDeterminism: the walk order for a key is stable across calls
// and across ring rebuilds — every gateway instance (and every restart)
// must agree on where a key lives and where it fails over to.
func TestRingDeterminism(t *testing.T) {
	build := func() *ring { return newRing([]string{"http://a:1", "http://b:1", "http://c:1"}) }
	r1, r2 := build(), build()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("bench=adaptec1|seed=%d", i)
		s1, s2 := r1.sequence(key), r2.sequence(key)
		if len(s1) != 3 || len(s2) != 3 {
			t.Fatalf("sequence(%q) lengths %d/%d, want 3", key, len(s1), len(s2))
		}
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Fatalf("sequence(%q) differs across rebuilds: %v vs %v", key, s1, s2)
			}
		}
	}
}

// TestRingSpreadAndStability: ownership spreads over all nodes, and a
// gateway restarted with one more worker moves keys ONLY onto the new
// worker — no key shuffles between the others, which is what keeps the
// fleet's result caches warm through scale-out.
func TestRingSpreadAndStability(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(nodes)
	grown := newRing(append(nodes, "http://d:1"))
	owner := func(r *ring, k string) string { return r.sequence(k)[0] }
	const keys = 2000
	spread := map[string]int{}
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		prev, now := owner(r, k), owner(grown, k)
		spread[prev]++
		if now == prev {
			continue
		}
		moved++
		if now != "http://d:1" {
			t.Fatalf("key %q moved %s -> %s: one more worker must only take keys, not shuffle them", k, prev, now)
		}
	}
	for _, n := range nodes {
		if spread[n] < keys/10 {
			t.Errorf("node %s owns %d/%d keys — ring badly unbalanced", n, spread[n], keys)
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Errorf("one more worker moved %d/%d keys, want roughly 1/4", moved, keys)
	}
}
