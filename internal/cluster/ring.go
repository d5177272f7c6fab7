// Package cluster turns a fleet of cuisined nodes into one warm cache
// (DESIGN.md §13). It adds three things on top of the single-node
// stack:
//
//   - a consistent-hash ring that assigns every key an owner among the
//     live members, so the fleet shards analyses instead of N nodes
//     paying N cold misses for the same one;
//   - a peer artifact exchange: on a local store miss a node asks its
//     peers for the framed artifact bytes before recomputing, verifying
//     the frame (magic, versions, kind, checksum) on receipt so a
//     misbehaving peer can never poison the cache;
//   - background health checking with exponential backoff over a static
//     peer list, gating ring membership so requests route around dead
//     nodes.
//
// The package is under the wallclock/nakedgo lint contract: it reads
// time only through an injected clock and never spawns goroutines —
// the daemon runs the blocking health loop itself. That keeps every
// routing and fetch decision a pure function of (members, health
// state, key), which the ring tests pin.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultVNodes is the number of hash points per member. 64 keeps the
// largest/smallest ownership-share ratio within a few percent for
// small fleets while the ring stays tiny (a 16-node fleet is 1024
// points, one binary search per lookup).
const DefaultVNodes = 64

// DefaultReplicas is how many distinct owners a key has. Two means
// every artifact the fleet computed survives one node death warm.
const DefaultReplicas = 2

// Ring is a consistent-hash ring over a fixed member set. Membership
// is static (the -peers list); liveness is dynamic and supplied per
// lookup, so the ring itself never mutates after construction and is
// safe for concurrent use.
type Ring struct {
	members  []string
	points   []ringPoint // sorted by hash
	replicas int
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over members (order-insensitive: points depend
// only on the member names, so every node in a fleet computes the same
// ring from the same -peers list regardless of list order). Each
// member gets DefaultVNodes points; replicas <= 0 uses DefaultReplicas.
func NewRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	r := &Ring{members: ms, replicas: replicas}
	var buf [8]byte
	for mi, m := range ms {
		h := sha256.New()
		h.Write([]byte(m))
		for v := 0; v < DefaultVNodes; v++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			vh := sha256.New()
			vh.Write(buf[:])
			var sum [sha256.Size]byte
			h.Sum(sum[:0])
			vh.Write(sum[:])
			r.points = append(r.points, ringPoint{
				hash:   binary.LittleEndian.Uint64(vh.Sum(nil)[:8]),
				member: mi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member // total order even on hash collision
	})
	return r
}

// Members returns the ring's member set in sorted order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Replicas returns the configured owner count per key.
func (r *Ring) Replicas() int { return r.replicas }

func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Owners returns up to Replicas distinct members owning key, walking
// clockwise from the key's hash point and keeping only members for
// which alive returns true (nil means all alive). A dead primary thus
// promotes the next live member — exactly the member that will already
// hold the artifact when replicas > 1 — and a fleet that is entirely
// dead returns nil, which callers treat as "serve locally".
func (r *Ring) Owners(key string, alive func(member string) bool) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var owners []string
	seen := make(map[int]bool, r.replicas)
	for i := 0; i < len(r.points) && len(owners) < r.replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		m := r.members[p.member]
		if alive == nil || alive(m) {
			owners = append(owners, m)
		}
	}
	return owners
}
