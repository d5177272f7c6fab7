package cluster

import (
	"fmt"
	"testing"
)

var testMembers = []string{
	"http://10.0.0.1:8372",
	"http://10.0.0.2:8372",
	"http://10.0.0.3:8372",
	"http://10.0.0.4:8372",
}

// TestRingOrderInsensitive pins the fleet-agreement property: every
// node builds the ring from its own -peers list, so two nodes given the
// same member set in different orders must agree on every key's owners.
func TestRingOrderInsensitive(t *testing.T) {
	a := NewRing(testMembers, 0)
	shuffled := []string{testMembers[2], testMembers[0], testMembers[3], testMembers[1]}
	b := NewRing(shuffled, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("analysis|key-%d", i)
		oa, ob := a.Owners(key, nil), b.Owners(key, nil)
		if len(oa) != len(ob) {
			t.Fatalf("key %q: owner counts differ: %v vs %v", key, oa, ob)
		}
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("key %q: owners differ: %v vs %v", key, oa, ob)
			}
		}
	}
}

// TestRingOwnersDistinct: replicas means distinct members, capped by
// the member count.
func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing(testMembers, 3)
	for i := 0; i < 200; i++ {
		owners := r.Owners(fmt.Sprintf("k%d", i), nil)
		if len(owners) != 3 {
			t.Fatalf("want 3 owners, got %v", owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner in %v", owners)
			}
			seen[o] = true
		}
	}
	// More replicas than members: every member, once.
	small := NewRing(testMembers[:2], 5)
	if owners := small.Owners("k", nil); len(owners) != 2 {
		t.Fatalf("2-member ring with replicas=5: owners = %v", owners)
	}
}

// TestRingDeadPromotion: a dead primary promotes the next live member —
// with replicas >= 2 that is exactly the member already holding the
// artifact warm.
func TestRingDeadPromotion(t *testing.T) {
	r := NewRing(testMembers, 2)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		before := r.Owners(key, nil)
		dead := before[0]
		after := r.Owners(key, func(m string) bool { return m != dead })
		if len(after) != 2 {
			t.Fatalf("key %q: owners after death = %v", key, after)
		}
		if after[0] != before[1] {
			t.Fatalf("key %q: dead primary %s should promote %s, got %v", key, dead, before[1], after)
		}
		if after[0] == dead || after[1] == dead {
			t.Fatalf("key %q: dead member still owns: %v", key, after)
		}
	}
}

// TestRingAllDead: a fleet with nothing alive returns no owners, which
// callers treat as "serve locally".
func TestRingAllDead(t *testing.T) {
	r := NewRing(testMembers, 2)
	if owners := r.Owners("k", func(string) bool { return false }); len(owners) != 0 {
		t.Fatalf("all-dead ring returned owners %v", owners)
	}
	empty := NewRing(nil, 0)
	if owners := empty.Owners("k", nil); owners != nil {
		t.Fatalf("empty ring returned owners %v", owners)
	}
}

// TestRingDistribution: 64 vnodes must spread primary ownership
// roughly evenly; a member falling far below its fair share means the
// point hashing regressed.
func TestRingDistribution(t *testing.T) {
	r := NewRing(testMembers, 1)
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		owners := r.Owners(fmt.Sprintf("analysis|seed=%d", i), nil)
		counts[owners[0]]++
	}
	for _, m := range testMembers {
		share := float64(counts[m]) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %s owns %.1f%% of keys (counts %v); vnode spread regressed", m, 100*share, counts)
		}
	}
}

// TestRingStability: repeated lookups of the same key are identical —
// the ring never mutates after construction, so owner assignment is a
// pure function of (members, key).
func TestRingStability(t *testing.T) {
	r := NewRing(testMembers, 2)
	for _, key := range []string{"a", "b", "analysis|{Scale:0.02}"} {
		owners := r.Owners(key, nil)
		again := r.Owners(key, nil)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("key %q: owners %v", key, owners)
		}
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("key %q: lookup not stable: %v vs %v", key, owners, again)
			}
		}
	}
}
