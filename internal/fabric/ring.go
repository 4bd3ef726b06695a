// Package fabric turns N voltbootd processes into one result-serving
// fleet: a consistent-hash ring places every content-addressed run key
// on an owner peer, the node forwards each run the campaign manager's
// dispatch loop hands it to that owner (and runs it locally when the
// owner refuses), and a minimal readiness/drain protocol lets a peer
// leave without dropping in-flight forwarded work.
//
// The fabric trades placement, never correctness: every run record is a
// deterministic pure function of its key, so any peer (or the local
// node, when a forward fails) can compute any run and the reassembled
// result body is byte-identical to a single-node run.
package fabric

import (
	"fmt"
	"sort"
)

// replicas is the virtual-node count per peer. 64 points per peer keeps
// the expected per-peer load imbalance within a few percent for small
// fleets without making ring rebuilds noticeable.
const replicas = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	peer string
}

// Ring is an immutable consistent-hash ring over peer IDs. Every peer
// that agrees on the member list computes identical ownership — there
// is no coordination step.
type Ring struct {
	points []point
	peers  []string // sorted member IDs
}

// NewRing builds a ring over the given peer IDs (duplicates ignored).
func NewRing(peers ...string) *Ring {
	seen := make(map[string]bool, len(peers))
	r := &Ring{}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: fnv64(fmt.Sprintf("%s#%d", p, i)), peer: p})
		}
	}
	sort.Strings(r.peers)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer // deterministic tie-break
	})
	return r
}

// Peers returns the sorted member IDs. The slice is shared; treat it as
// read-only.
func (r *Ring) Peers() []string { return r.peers }

// Successors returns up to n distinct peers clockwise from key's
// position, starting with the owner — the fallback order when the owner
// is draining or down.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := fnv64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// fnv64 is FNV-1a over s with a murmur3-style finalizer, inlined to
// keep ring lookups allocation-free. Raw FNV leaves near-identical
// short strings (peer IDs, counter-suffixed vnode labels) in narrow
// arithmetic bands of the hash space; the avalanche step spreads them
// uniformly so vnode placement and key routing stay balanced for any
// key shape.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
