// Package cluster turns a fleet of independent service proxies into one
// sharded service. The paper (§2) answers its centralization concern
// with "replicated or recoverable server implementations"; plain
// replication leaves N copies doing N cold origin fetches and N
// duplicate pipeline runs per class. This package instead assigns every
// (arch, class) key an owner node on a consistent-hash ring: non-owner
// nodes fill their misses from the owner over a small HTTP peer
// protocol, so the whole cluster pays for at most one origin fetch and
// one rewrite-pipeline run per key — the proxy's single-flight
// coalescing extended cluster-wide.
//
// Membership is live (membership.go, gossip.go): nodes boot from a
// static seed list, then gossip versioned views to track joins,
// failures (SWIM-style suspect -> dead), and graceful drains, each node
// rebuilding its ring locally as the agreed member set changes. A peer
// that stops answering trips a per-peer circuit breaker — which both
// degrades that node to fetching from the origin itself AND feeds the
// suspicion machinery — so a peer outage costs sharing, never
// availability, and is eventually excised from every ring. Keys are
// replicated to R owners (the ring successor holds a warm copy, kept as
// it voted or pushed after the seal), so a primary's death degrades to a
// replica hit instead of a cold origin fetch. Hot keys — ones a node
// keeps round-tripping for — are additionally replicated into the
// requesting node's own LRU so ring owners do not become hotspots.
//
// A Node is its proxy's proxy.Fleet — the two places a miss touches the
// cluster: Fill (node.go: ask the key's owner chain) and Seal (attest.go:
// quorum cross-check of an artifact produced here, then handoff.go: copies
// on the key's other owners). Artifacts move between nodes only as
// proxy.Artifact values on the /peer/v2/batch frame (peer.go, frame.go),
// whose one trust gate, fromWire, re-verifies the seal on every hop; a
// vote's payload on /peer/v2/vote is derived from and never cached.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member vnode count when Config leaves
// it zero. The relative spread of member load shrinks roughly with the
// square root of the vnode count; 512 keeps every member within ~15% of
// the mean even at 8 members (see the balance property test), while the
// ring stays a few thousand points — microseconds to build, a binary
// search to query. A membership change still moves only ~1/n of keys.
const DefaultVirtualNodes = 512

// Ring is an immutable consistent-hash ring: each member appears at
// VirtualNodes pseudo-random points on a 64-bit circle, and a key is
// owned by the member whose point follows the key's hash clockwise.
// Determinism matters — every node must compute the identical ring from
// the identical configuration — so point placement uses a fixed hash
// mixed with an explicit seed, never process-local randomness.
type Ring struct {
	seed    uint64
	points  []ringPoint // sorted by hash
	members []string    // sorted, deduplicated
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members with vnodes virtual nodes each
// (<=0 selects DefaultVirtualNodes). Members are deduplicated; order
// does not matter — two nodes given the same set in any order compute
// the same ring.
func NewRing(members []string, vnodes int, seed uint64) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		seed:    seed,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
		members: uniq,
	}
	for _, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   r.hash(m + "#" + strconv.Itoa(v)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Vanishingly rare 64-bit collision: break the tie by member name
		// so every node still agrees on the ordering.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the ring membership, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size returns the number of distinct members.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member that owns key: the first virtual node at or
// after the key's hash, wrapping at the top of the circle.
func (r *Ring) Owner(key string) string {
	h := r.hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Owners returns the first r distinct members clockwise from the key's
// hash: Owners(key, 1)[0] == Owner(key), and the rest are the key's
// replica successors in ring order. With r >= the member count, every
// member is returned. Replication factor R means a key's bytes live on
// Owners(key, R): the primary serves peer fills, the successors hold
// warm copies that take over when the primary dies.
func (r *Ring) Owners(key string, count int) []string {
	if count <= 0 {
		count = 1
	}
	if count > len(r.members) {
		count = len(r.members)
	}
	h := r.hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, count)
	seen := make(map[string]bool, count)
	for n := 0; n < len(r.points) && len(out) < count; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// KeyFor builds the canonical ring key for a class request. It must
// match the proxy's cache key notion: transformed bytes differ per
// target architecture, so (arch, class) shards as one unit.
func KeyFor(arch, class string) string { return arch + "\x00" + class }

// hash is FNV-1a64 with a splitmix64 finalizer, seeded. FNV alone is
// weak on short, similar strings (vnode labels differ in a suffix
// digit); the finalizer's avalanche restores an even spread around the
// circle.
func (r *Ring) hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= r.seed
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}
