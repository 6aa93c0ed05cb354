package hypercube

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// TestPoolDepotInvariants drives four magazines over one depot with a
// random get/put sequence and checks after every step what the two
// levels promise: a magazine list never exceeds magCap, a get allocates
// only when its own list and the depot's are both empty, a buffer is
// large enough for the class it is handed out in, and no buffer is
// handed out while somebody still holds it.
func TestPoolDepotInvariants(t *testing.T) {
	var d depot
	mags := make([]bufPool, 4)
	for i := range mags {
		mags[i].depot = &d
	}
	rng := rand.New(rand.NewSource(1))
	held := map[*float64]bool{}
	var out [][]float64
	fromDepot := 0
	for step := 0; step < 200000; step++ {
		// Long runs of gets, then of puts, each on a magazine of its
		// own choosing: the lists fill and drain through the depot.
		bp := &mags[rng.Intn(len(mags))]
		if len(out) > 0 && (step/500)%2 == 1 {
			i := rng.Intn(len(out))
			b := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			delete(held, &b[0])
			bp.put(b)
		} else {
			n := 1 + rng.Intn(300)
			c := bits.Len(uint(n - 1))
			free := len(bp.free[c]) + len(d.free[c])
			if len(bp.free[c]) == 0 && free > 0 {
				fromDepot++
			}
			hits := bp.hits
			b := bp.get(n)
			if len(b) != n || cap(b) < 1<<c {
				t.Fatalf("step %d: get(%d) returned len %d cap %d, class needs cap >= %d", step, n, len(b), cap(b), 1<<c)
			}
			if hit := bp.hits > hits; hit != (free > 0) {
				t.Fatalf("step %d: get(%d) hit=%v with %d free buffers of its class in magazine and depot", step, n, hit, free)
			}
			if held[&b[0]] {
				t.Fatalf("step %d: get(%d) handed out a buffer that is still held", step, n)
			}
			held[&b[0]] = true
			out = append(out, b)
		}
		for c := range bp.free {
			if len(bp.free[c]) > magCap {
				t.Fatalf("step %d: magazine holds %d buffers of class %d, cap is %d", step, len(bp.free[c]), c, magCap)
			}
		}
	}
	if fromDepot == 0 {
		t.Fatal("no get was served by the depot: the sequence does not exercise it")
	}
	t.Logf("%d gets served by the depot", fromDepot)
}

// TestPoolDepotStress is the depot under the traffic it exists for,
// with the race detector watching: four sources get a buffer, stamp
// every word and send it to a sink; four sinks check the stamp, poison
// the buffer and put it. Every buffer therefore crosses the depot on
// its way back. A buffer handed out twice shows as a torn stamp (or a
// reported race), and the number ever allocated is bounded by what can
// be outstanding at once — not by the 4·10^5 round trips.
func TestPoolDepotStress(t *testing.T) {
	const pairs, words, inFlight = 4, 8, 16
	trips := 100000
	if testing.Short() {
		trips = 10000
	}
	const poison = -1
	var d depot
	var wg sync.WaitGroup
	made := make([]int64, pairs)
	for i := 0; i < pairs; i++ {
		ch := make(chan []float64, inFlight) // bounds the buffers outstanding per pair
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(ch)
			src := bufPool{depot: &d}
			for seq := 1; seq <= trips; seq++ {
				b := src.get(words)
				stamp := float64(i*trips + seq)
				for w := range b {
					if b[w] != poison && b[w] != 0 {
						t.Errorf("source %d: got a buffer that is neither fresh nor recycled: word %d = %v", i, w, b[w])
					}
					b[w] = stamp
				}
				ch <- b
			}
			made[i] = src.gets - src.hits
		}()
		go func() {
			defer wg.Done()
			sink := bufPool{depot: &d}
			for b := range ch {
				stamp := b[0]
				for w := range b {
					if b[w] != stamp {
						t.Errorf("sink %d: torn buffer: word %d = %v, word 0 = %v", i, w, b[w], stamp)
					}
					b[w] = poison
				}
				sink.put(b)
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, n := range made {
		total += n
	}
	// At an allocation the depot is empty, so every buffer in existence
	// is in a channel, in a goroutine's hands or in a magazine.
	if limit := int64(pairs * (inFlight + 2 + 2*magCap)); total > limit {
		t.Errorf("%d buffers allocated over %d round trips, want at most %d", total, pairs*trips, limit)
	}
}
