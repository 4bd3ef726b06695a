package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// keys generates n hex-SHA-256 strings — the exact shape of campaign
// cache keys, which is what the ring routes in production.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestRingDeterministic: two rings built from the same members (in any
// order) agree on every owner — the property that lets peers route
// without coordinating.
func TestRingDeterministic(t *testing.T) {
	a := NewRing("alpha", "beta", "gamma")
	b := NewRing("gamma", "alpha", "beta", "alpha") // dup ignored
	for _, k := range keys(1000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on %s: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
	if len(a.Peers()) != 3 {
		t.Fatalf("peers = %v", a.Peers())
	}
}

// TestRingBalance: with the default replica count, no peer of a small
// fleet owns a wildly disproportionate key share.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("peer-%d", i)
		}
		r := NewRing(peers...)
		counts := map[string]int{}
		const total = 10000
		for _, k := range keys(total) {
			counts[r.Owner(k)]++
		}
		want := total / n
		for p, c := range counts {
			if c < want/3 || c > want*3 {
				t.Errorf("n=%d: %s owns %d of %d keys (expected ≈%d)", n, p, c, total, want)
			}
		}
	}
}

// TestRingSuccessors: successors are distinct, start at the owner, and
// cover the whole fleet when asked.
func TestRingSuccessors(t *testing.T) {
	r := NewRing("a", "b", "c", "d")
	for _, k := range keys(100) {
		succ := r.Successors(k, 4)
		if len(succ) != 4 {
			t.Fatalf("got %d successors", len(succ))
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("successors don't start at owner: %v vs %s", succ, r.Owner(k))
		}
		seen := map[string]bool{}
		for _, p := range succ {
			if seen[p] {
				t.Fatalf("duplicate successor %s in %v", p, succ)
			}
			seen[p] = true
		}
	}
	if got := r.Successors("x", 99); len(got) != 4 {
		t.Fatalf("over-asking returned %d peers", len(got))
	}
}

// TestRingWithoutMovesFewKeys is the consistent-hashing property:
// removing one of n members re-homes roughly 1/n of the key space and
// never moves a key whose owner survived.
func TestRingWithoutMovesFewKeys(t *testing.T) {
	const n = 5
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("peer-%d", i)
	}
	r := NewRing(peers...)
	smaller := NewRing(append(peers[:2:2], peers[3:]...)...) // peer-2 drains away
	const total = 10000
	moved := 0
	for _, k := range keys(total) {
		before, after := r.Owner(k), smaller.Owner(k)
		if before == after {
			continue
		}
		moved++
		if before != "peer-2" {
			t.Fatalf("key %s moved from surviving peer %s to %s", k, before, after)
		}
	}
	// Expect ≈ total/n moved; allow a generous band.
	if moved < total/(n*3) || moved > total*2/n {
		t.Fatalf("removing 1 of %d peers moved %d of %d keys", n, moved, total)
	}
}

// Owner returns the peer owning key — the first virtual node clockwise
// from the key's hash. Empty string on an empty ring. The tests' oracle
// for ownership; the node routes by Successors, which starts with it.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}
