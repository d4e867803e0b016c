// Package shard turns N independent vcaserved workers into one
// cache-affine sweep fleet. A Router is a server.Server — the same
// admission, priority/tenant queue, job table, drain and HTTP API a
// worker runs — whose executor sends each cell it pops to a worker
// instead of simulating it. The executor derives the cell's simcache
// content address (server.CellKey) and routes it on a consistent-hash
// ring, so identical cells — from any tenant, in any sweep, at any time
// — always land on the same worker and hit that worker's shared result
// cache and singleflight table. That extends a daemon's invariant
// "misses == simulations" to the whole fleet: a cell simulates exactly
// once fleet-wide, no matter how many tenants ask.
//
// Dispatch is per cell over pooled persistent HTTP connections, with
// per-cell retry + exponential backoff against the owning worker and
// failover to the ring successor when a worker dies mid-sweep; worker
// NDJSON streams merge back into one completion-ordered client stream
// through the shared server.Job machinery. /metrics aggregates every
// worker's registry (fetched as raw samples from /metrics.json, merged
// by metrics.Merge) plus the router's own server.shard.* series.
//
// Topology, failure semantics, and the cache-affinity guarantee are
// documented in docs/SERVICE.md ("Sharded deployment"); the
// acceptance gate is `make serve-smoke` (internal/tools/shardsmoke).
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes: each worker owns
// VNodes points on a 64-bit circle, and a key belongs to the worker
// owning the first point at or after the key's hash. Virtual nodes keep
// the key space balanced (ring_test.go holds a χ²-style bound); the
// ring structure keeps remapping minimal — when a worker joins or
// leaves, only the keys in the arcs it gains or loses move, about K/N
// of them, and no key ever moves between two surviving workers.
//
// A Ring is immutable after New; membership changes build a new ring
// (With/Without). The Router never rebuilds its ring on failure —
// it routes around dead workers by walking successors — so a worker
// that comes back finds its key space exactly where it left it.
type Ring struct {
	nodes  []string // distinct members, sorted (for deterministic walks)
	points []point  // vnode points, sorted by hash
	vnodes int
}

type point struct {
	hash uint64
	node int // index into nodes
}

// hashKey positions an arbitrary key (a simcache content address) on
// the circle. The full SHA-256 is taken even though cache keys are
// already digests: routing must also behave for non-digest keys, and
// the double hash keeps vnode points and keys in one family.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

func hashVNode(node string, i int) uint64 {
	sum := sha256.Sum256(fmt.Appendf(nil, "%s#%d", node, i))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given distinct workers with vnodes
// virtual nodes each (vnodes <= 0 takes 128). Node order does not
// matter: rings over permutations of the same set route identically.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	r := &Ring{nodes: slices.Clone(nodes), vnodes: vnodes}
	slices.Sort(r.nodes)
	r.nodes = slices.Compact(r.nodes)
	r.points = make([]point, 0, len(r.nodes)*vnodes)
	for ni, n := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: hashVNode(n, i), node: ni})
		}
	}
	slices.SortFunc(r.points, func(a, b point) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		return a.node - b.node // ties broken by node index: deterministic
	})
	return r
}

// Nodes returns the ring's members in sorted order.
func (r *Ring) Nodes() []string { return slices.Clone(r.nodes) }

// With returns a new ring with node added (a no-op copy if present).
func (r *Ring) With(node string) *Ring {
	return NewRing(append(slices.Clone(r.nodes), node), r.vnodes)
}

// Without returns a new ring with node removed.
func (r *Ring) Without(node string) *Ring {
	keep := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			keep = append(keep, n)
		}
	}
	return NewRing(keep, r.vnodes)
}

// Owner returns the worker owning key — the cache-affine destination.
// Panics on an empty ring (a router requires at least one worker).
func (r *Ring) Owner(key string) string {
	return r.nodes[r.ownerIndex(hashKey(key))]
}

func (r *Ring) ownerIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.points[i].node
}

// Successors returns every worker in ring order starting from key's
// owner: Successors(key)[0] is Owner(key), and each later entry is the
// next distinct worker walking clockwise from the owning point — the
// failover order. The slice has one entry per member.
func (r *Ring) Successors(key string) []string {
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for off := 0; off < len(r.points) && len(out) < len(r.nodes); off++ {
		p := r.points[(start+off)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}
