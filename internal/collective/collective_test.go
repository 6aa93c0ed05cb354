package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmprim/internal/costmodel"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

// masksFor returns a variety of dimension masks inside a dim-d cube,
// including non-contiguous ones and the empty mask.
func masksFor(d int) []int {
	masks := []int{0}
	full := (1 << d) - 1
	masks = append(masks, full)
	if d >= 2 {
		masks = append(masks, 0b01, 0b10, full>>1)
	}
	if d >= 3 {
		masks = append(masks, 0b101, 0b110)
	}
	if d >= 4 {
		masks = append(masks, 0b1010, 0b1001, 0b0110)
	}
	return masks
}

func newMachine(t *testing.T, d int) *hypercube.Machine {
	t.Helper()
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBcastAllMasksAllRoots(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		for rootRel := 0; rootRel < 1<<k; rootRel++ {
			got := make([][]float64, m.P())
			_, err := m.Run(func(p *hypercube.Proc) {
				// Seed data so each subcube's root value is unique:
				// derived from the off-mask bits + the root coordinate.
				base := float64(p.ID()&^mask)*1000 + float64(rootRel)
				var data []float64
				if gray.Compact(p.ID(), mask) == rootRel {
					data = []float64{base, base + 1, base + 2}
				}
				got[p.ID()] = Bcast(p, mask, 1, rootRel, data)
			})
			if err != nil {
				t.Fatalf("mask %b root %d: %v", mask, rootRel, err)
			}
			for pid := 0; pid < m.P(); pid++ {
				base := float64(pid&^mask)*1000 + float64(rootRel)
				for j := 0; j < 3; j++ {
					if got[pid][j] != base+float64(j) {
						t.Fatalf("mask %b root %d proc %d: got %v", mask, rootRel, pid, got[pid])
					}
				}
			}
		}
	}
}

func TestBcastLargeMatchesBcast(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range []int{0, 0b11, 0b1111, 0b1010} {
		k := gray.OnesCount(mask)
		n := 8 << k
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i) * 1.5
		}
		got := make([][]float64, m.P())
		_, err := m.Run(func(p *hypercube.Proc) {
			var data []float64
			if gray.Compact(p.ID(), mask) == 0 {
				data = want
			}
			got[p.ID()] = BcastLarge(p, mask, 1, 0, data)
		})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for pid := 0; pid < m.P(); pid++ {
			for i := range want {
				if got[pid][i] != want[i] {
					t.Fatalf("mask %b proc %d elem %d: got %v want %v", mask, pid, i, got[pid][i], want[i])
				}
			}
		}
	}
}

func TestBcastLargeCheaperForLongVectors(t *testing.T) {
	// With CM2 parameters and a long vector, scatter/all-gather must
	// beat the binomial tree (that is its reason to exist).
	m := newMachine(t, 6)
	n := 64 * 64
	data := make([]float64, n)
	mask := (1 << 6) - 1
	_, err := m.Run(func(p *hypercube.Proc) {
		var d []float64
		if p.ID() == 0 {
			d = data
		}
		Bcast(p, mask, 1, 0, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := m.Elapsed()
	_, err = m.Run(func(p *hypercube.Proc) {
		var d []float64
		if p.ID() == 0 {
			d = data
		}
		BcastLarge(p, mask, 1, 0, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	large := m.Elapsed()
	if large >= tree {
		t.Fatalf("BcastLarge (%v) not cheaper than Bcast (%v) at n=%d", large, tree, n)
	}
}

func TestReduceSumAllMasksAllRoots(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		for _, rootRel := range []int{0, (1 << k) - 1} {
			got := make([][]float64, m.P())
			_, err := m.Run(func(p *hypercube.Proc) {
				data := []float64{1, float64(p.ID())}
				got[p.ID()] = Reduce(p, mask, 1, rootRel, data, Sum)
			})
			if err != nil {
				t.Fatalf("mask %b: %v", mask, err)
			}
			for pid := 0; pid < m.P(); pid++ {
				isRoot := gray.Compact(pid, mask) == rootRel
				if !isRoot {
					if got[pid] != nil {
						t.Fatalf("mask %b proc %d: non-root got data", mask, pid)
					}
					continue
				}
				// Sum of ids over the subcube containing pid.
				count, idSum := 0.0, 0.0
				for q := 0; q < m.P(); q++ {
					if q&^mask == pid&^mask {
						count++
						idSum += float64(q)
					}
				}
				if got[pid][0] != count || got[pid][1] != idSum {
					t.Fatalf("mask %b root proc %d: got %v, want [%v %v]", mask, pid, got[pid], count, idSum)
				}
			}
		}
	}
}

func TestAllReduceMatchesReduce(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		for _, n := range []int{1, 3, 16, 64} {
			got := make([][]float64, m.P())
			_, err := m.Run(func(p *hypercube.Proc) {
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(p.ID()*n + i)
				}
				got[p.ID()] = AllReduce(p, mask, 1, data, Sum)
			})
			if err != nil {
				t.Fatalf("mask %b n %d: %v", mask, n, err)
			}
			for pid := 0; pid < m.P(); pid++ {
				for i := 0; i < n; i++ {
					want := 0.0
					for q := 0; q < m.P(); q++ {
						if q&^mask == pid&^mask {
							want += float64(q*n + i)
						}
					}
					if math.Abs(got[pid][i]-want) > 1e-9 {
						t.Fatalf("mask %b n %d proc %d elem %d: got %v want %v", mask, n, pid, i, got[pid][i], want)
					}
				}
			}
		}
	}
}

func TestReduceScatterPiecesReassemble(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		n := 4 << k
		pieces := make([][]float64, m.P())
		offsets := make([]int, m.P())
		_, err := m.Run(func(p *hypercube.Proc) {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i) // same on every proc: sum = count * i
			}
			pieces[p.ID()], offsets[p.ID()] = ReduceScatter(p, mask, 1, data, Sum)
		})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		subSize := float64(int(1) << k)
		for pid := 0; pid < m.P(); pid++ {
			r := gray.Compact(pid, mask)
			wantOff := r * (n >> k)
			if offsets[pid] != wantOff {
				t.Fatalf("mask %b proc %d: offset %d, want %d", mask, pid, offsets[pid], wantOff)
			}
			if len(pieces[pid]) != n>>k {
				t.Fatalf("mask %b proc %d: piece len %d, want %d", mask, pid, len(pieces[pid]), n>>k)
			}
			for j, v := range pieces[pid] {
				if v != subSize*float64(wantOff+j) {
					t.Fatalf("mask %b proc %d piece[%d] = %v, want %v", mask, pid, j, v, subSize*float64(wantOff+j))
				}
			}
		}
	}
}

func TestAllGatherOrder(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		got := make([][]float64, m.P())
		_, err := m.Run(func(p *hypercube.Proc) {
			r := gray.Compact(p.ID(), mask)
			piece := []float64{float64(r), float64(r) + 0.5}
			got[p.ID()] = AllGather(p, mask, 1, piece)
		})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for pid := 0; pid < m.P(); pid++ {
			if len(got[pid]) != 2<<k {
				t.Fatalf("mask %b proc %d: len %d", mask, pid, len(got[pid]))
			}
			for r := 0; r < 1<<k; r++ {
				if got[pid][2*r] != float64(r) || got[pid][2*r+1] != float64(r)+0.5 {
					t.Fatalf("mask %b proc %d slot %d: %v", mask, pid, r, got[pid][2*r:2*r+2])
				}
			}
		}
	}
}

func TestGatherAllMasksAllRoots(t *testing.T) {
	const d = 3
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		for rootRel := 0; rootRel < 1<<k; rootRel++ {
			got := make([][]float64, m.P())
			_, err := m.Run(func(p *hypercube.Proc) {
				r := gray.Compact(p.ID(), mask)
				piece := []float64{float64(r) * 10, float64(r)*10 + 1}
				got[p.ID()] = Gather(p, mask, 1, rootRel, piece)
			})
			if err != nil {
				t.Fatalf("mask %b root %d: %v", mask, rootRel, err)
			}
			for pid := 0; pid < m.P(); pid++ {
				r := gray.Compact(pid, mask)
				if r != rootRel {
					if got[pid] != nil {
						t.Fatalf("mask %b root %d: non-root %d got data", mask, rootRel, pid)
					}
					continue
				}
				if len(got[pid]) != 2<<k {
					t.Fatalf("mask %b root %d: len %d", mask, rootRel, len(got[pid]))
				}
				for q := 0; q < 1<<k; q++ {
					if got[pid][2*q] != float64(q)*10 || got[pid][2*q+1] != float64(q)*10+1 {
						t.Fatalf("mask %b root %d slot %d: %v", mask, rootRel, q, got[pid][2*q:2*q+2])
					}
				}
			}
		}
	}
}

func TestScatterAllMasksAllRoots(t *testing.T) {
	const d = 3
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		n := 2 << k
		for rootRel := 0; rootRel < 1<<k; rootRel++ {
			got := make([][]float64, m.P())
			_, err := m.Run(func(p *hypercube.Proc) {
				var data []float64
				if gray.Compact(p.ID(), mask) == rootRel {
					data = make([]float64, n)
					for i := range data {
						data[i] = float64(i) + float64(p.ID()&^mask)*100
					}
				}
				got[p.ID()] = Scatter(p, mask, 1, rootRel, data)
			})
			if err != nil {
				t.Fatalf("mask %b root %d: %v", mask, rootRel, err)
			}
			for pid := 0; pid < m.P(); pid++ {
				r := gray.Compact(pid, mask)
				base := float64(pid&^mask) * 100
				if len(got[pid]) != 2 {
					t.Fatalf("mask %b root %d proc %d: len %d", mask, rootRel, pid, len(got[pid]))
				}
				for j := 0; j < 2; j++ {
					want := base + float64(r*2+j)
					if got[pid][j] != want {
						t.Fatalf("mask %b root %d proc %d: got %v, want %v", mask, rootRel, pid, got[pid][j], want)
					}
				}
			}
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	mask := 0b1011
	k := gray.OnesCount(mask)
	n := 3 << k
	rng := rand.New(rand.NewSource(7))
	orig := make([]float64, n)
	for i := range orig {
		orig[i] = rng.Float64()
	}
	var back []float64
	_, err := m.Run(func(p *hypercube.Proc) {
		var data []float64
		if gray.Compact(p.ID(), mask) == 2 {
			data = orig
		}
		piece := Scatter(p, mask, 1, 2, data)
		out := Gather(p, mask, 2, 2, piece)
		if gray.Compact(p.ID(), mask) == 2 && p.ID()&^mask == 0 {
			back = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, back[i], orig[i])
		}
	}
}

func TestAllToAllDelivery(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		k := gray.OnesCount(mask)
		got := make([][][]float64, m.P())
		_, err := m.Run(func(p *hypercube.Proc) {
			r := gray.Compact(p.ID(), mask)
			out := make([][]float64, 1<<k)
			for j := range out {
				// Payload encodes (origin, destination).
				out[j] = []float64{float64(r), float64(j)}
			}
			got[p.ID()] = AllToAll(p, mask, 1, out)
		})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for pid := 0; pid < m.P(); pid++ {
			r := gray.Compact(pid, mask)
			for j := 0; j < 1<<k; j++ {
				if got[pid][j][0] != float64(j) || got[pid][j][1] != float64(r) {
					t.Fatalf("mask %b proc %d slot %d: %v, want [%d %d]", mask, pid, j, got[pid][j], j, r)
				}
			}
		}
	}
}

func TestScanInclusive(t *testing.T) {
	const d = 4
	m := newMachine(t, d)
	for _, mask := range masksFor(d) {
		got := make([][]float64, m.P())
		_, err := m.Run(func(p *hypercube.Proc) {
			r := gray.Compact(p.ID(), mask)
			got[p.ID()] = ScanInclusive(p, mask, 1, []float64{float64(r + 1)}, Sum)
		})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for pid := 0; pid < m.P(); pid++ {
			r := gray.Compact(pid, mask)
			want := float64((r + 1) * (r + 2) / 2) // 1+2+...+(r+1)
			if got[pid][0] != want {
				t.Fatalf("mask %b proc %d (rel %d): got %v, want %v", mask, pid, r, got[pid][0], want)
			}
		}
	}
}

func TestScanExclusive(t *testing.T) {
	const d = 3
	m := newMachine(t, d)
	mask := (1 << d) - 1
	got := make([][]float64, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		r := gray.Compact(p.ID(), mask)
		got[p.ID()] = ScanExclusive(p, mask, 1, []float64{float64(r + 1)}, []float64{0}, Sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		r := gray.Compact(pid, mask)
		want := float64(r * (r + 1) / 2) // 1+2+...+r
		if got[pid][0] != want {
			t.Fatalf("proc %d (rel %d): got %v, want %v", pid, r, got[pid][0], want)
		}
	}
}

func TestMaxLocMinLoc(t *testing.T) {
	const d = 3
	m := newMachine(t, d)
	vals := []float64{3, 9, 9, 1, 7, 9, 0, 5}
	gotMax := make([][]float64, m.P())
	gotMin := make([][]float64, m.P())
	mask := (1 << d) - 1
	_, err := m.Run(func(p *hypercube.Proc) {
		pair := []float64{vals[p.ID()], float64(p.ID())}
		gotMax[p.ID()] = AllReduce(p, mask, 1, pair, MaxLoc)
		gotMin[p.ID()] = AllReduce(p, mask, 2, pair, MinLoc)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		// Max value 9 first occurs at index 1; min value 0 at index 6.
		if gotMax[pid][0] != 9 || gotMax[pid][1] != 1 {
			t.Fatalf("proc %d MaxLoc = %v, want [9 1]", pid, gotMax[pid])
		}
		if gotMin[pid][0] != 0 || gotMin[pid][1] != 6 {
			t.Fatalf("proc %d MinLoc = %v, want [0 6]", pid, gotMin[pid])
		}
	}
}

func TestCombiners(t *testing.T) {
	dst := []float64{1, 5, -2}
	Sum(dst, []float64{2, -1, 4})
	if dst[0] != 3 || dst[1] != 4 || dst[2] != 2 {
		t.Fatalf("Sum: %v", dst)
	}
	dst = []float64{2, 3, 4}
	Prod(dst, []float64{5, 0, -1})
	if dst[0] != 10 || dst[1] != 0 || dst[2] != -4 {
		t.Fatalf("Prod: %v", dst)
	}
	dst = []float64{1, 5}
	Max(dst, []float64{3, 2})
	if dst[0] != 3 || dst[1] != 5 {
		t.Fatalf("Max: %v", dst)
	}
	dst = []float64{1, 5}
	Min(dst, []float64{3, 2})
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("Min: %v", dst)
	}
}

func TestMaxLocTieBreaksToSmallerIndex(t *testing.T) {
	dst := []float64{7, 4}
	MaxLoc(dst, []float64{7, 2})
	if dst[1] != 2 {
		t.Fatalf("MaxLoc tie: %v, want index 2", dst)
	}
	dst = []float64{7, 2}
	MaxLoc(dst, []float64{7, 4})
	if dst[1] != 2 {
		t.Fatalf("MaxLoc tie: %v, want index 2", dst)
	}
	dst = []float64{3, 9}
	MinLoc(dst, []float64{3, 1})
	if dst[1] != 1 {
		t.Fatalf("MinLoc tie: %v, want index 1", dst)
	}
}

func TestAllReduceAgainstSerialQuick(t *testing.T) {
	// Property: for random inputs, AllReduce(Sum) equals the serial
	// sum within tolerance, on every processor, for a random mask.
	const d = 3
	m := newMachine(t, d)
	f := func(seed int64, maskBits uint8) bool {
		mask := int(maskBits) & ((1 << d) - 1)
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, m.P())
		for i := range inputs {
			inputs[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		got := make([][]float64, m.P())
		if _, err := m.Run(func(p *hypercube.Proc) {
			got[p.ID()] = AllReduce(p, mask, 1, inputs[p.ID()], Sum)
		}); err != nil {
			return false
		}
		for pid := 0; pid < m.P(); pid++ {
			for j := 0; j < 2; j++ {
				want := 0.0
				for q := 0; q < m.P(); q++ {
					if q&^mask == pid&^mask {
						want += inputs[q][j]
					}
				}
				if math.Abs(got[pid][j]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMaskIsLocal(t *testing.T) {
	m := newMachine(t, 2)
	_, err := m.Run(func(p *hypercube.Proc) {
		data := []float64{float64(p.ID())}
		if got := Bcast(p, 0, 1, 0, data); got[0] != data[0] {
			panic("Bcast mask 0")
		}
		if got := AllReduce(p, 0, 2, data, Sum); got[0] != data[0] {
			panic("AllReduce mask 0")
		}
		if got := Reduce(p, 0, 3, 0, data, Sum); got[0] != data[0] {
			panic("Reduce mask 0")
		}
		piece, off := ReduceScatter(p, 0, 4, data, Sum)
		if off != 0 || piece[0] != data[0] {
			panic("ReduceScatter mask 0")
		}
		if got := AllGather(p, 0, 5, data); got[0] != data[0] {
			panic("AllGather mask 0")
		}
		if got := ScanInclusive(p, 0, 6, data, Sum); got[0] != data[0] {
			panic("Scan mask 0")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterRejectsBadLength(t *testing.T) {
	m := newMachine(t, 2)
	_, err := m.Run(func(p *hypercube.Proc) {
		ReduceScatter(p, 0b11, 1, []float64{1, 2, 3}, Sum) // 3 % 4 != 0
	})
	if err == nil {
		t.Fatal("bad length accepted")
	}
}

func TestBcastResultNotAliased(t *testing.T) {
	m := newMachine(t, 2)
	mask := 0b11
	orig := []float64{1, 2}
	results := make([][]float64, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		var data []float64
		if p.ID() == 0 {
			data = orig
		}
		results[p.ID()] = Bcast(p, mask, 1, 0, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	results[0][0] = -99
	if orig[0] == -99 {
		t.Fatal("root result aliases caller data")
	}
	if results[1][0] == -99 || results[2][0] == -99 {
		t.Fatal("results alias each other")
	}
}
