package hypercube

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestPoolInvariants drives one pool with a random get/put sequence and
// checks after every step what it promises: a get allocates if and
// only if its class stack is empty, a buffer is large enough for the
// class it is handed out in, and no buffer is handed out while somebody
// still holds it.
func TestPoolInvariants(t *testing.T) {
	var bp bufPool
	rng := rand.New(rand.NewSource(1))
	held := map[*float64]bool{}
	var out [][]float64
	for step := 0; step < 200000; step++ {
		// Long runs of gets, then of puts: the stacks fill and drain.
		if len(out) > 0 && (step/500)%2 == 1 {
			i := rng.Intn(len(out))
			b := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			delete(held, &b[0])
			bp.put(b)
			continue
		}
		n := 1 + rng.Intn(300)
		c := bits.Len(uint(n - 1))
		free := len(bp.free[c])
		hits := bp.hits
		b := bp.get(n)
		if len(b) != n || cap(b) < 1<<c {
			t.Fatalf("step %d: get(%d) returned len %d cap %d, class needs cap >= %d", step, n, len(b), cap(b), 1<<c)
		}
		if hit := bp.hits > hits; hit != (free > 0) {
			t.Fatalf("step %d: get(%d) hit=%v with %d free buffers of its class", step, n, hit, free)
		}
		if held[&b[0]] {
			t.Fatalf("step %d: get(%d) handed out a buffer that is still held", step, n)
		}
		held[&b[0]] = true
		out = append(out, b)
	}
	if bp.hits == 0 || bp.hits == bp.gets {
		t.Fatalf("%d of %d gets hit: the sequence must both reuse and allocate", bp.hits, bp.gets)
	}
	t.Logf("%d of %d gets served from a free stack", bp.hits, bp.gets)
}
