package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
	"vmprim/internal/router"
	"vmprim/internal/serial"
)

// Distributed tridiagonal solve by odd-even cyclic reduction — the
// workhorse of the Alternating Direction Method literature surrounding
// the paper (Johnsson & Ho's tridiagonal-solver studies appear in the
// same TMC report series). The equations live in the load-balanced
// linear embedding; each of the 2 lg n reduction/back-substitution
// levels exchanges the O(n/2^s) active equations' neighbors through
// one batched personalized routing, so the parallel time is
// O(lg n (lg p + tau)) once n/p reaches one — and the local levels
// (stride inside a processor's block) cost no communication at all.

// SolveTridiag solves a[i]*x[i-1] + b[i]*x[i] + c[i]*x[i+1] = d[i]
// on machine mach by distributed odd-even cyclic reduction and returns
// x and the simulated elapsed time. The system must be numerically
// safe without pivoting (e.g. diagonally dominant), like the serial
// Thomas reference.
func SolveTridiag(mach *hypercube.Machine, a, b, c, d []float64) ([]float64, costmodel.Time, error) {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n {
		return nil, 0, fmt.Errorf("apps: SolveTridiag band lengths %d/%d/%d/%d", len(a), len(b), len(c), len(d))
	}
	if n == 0 {
		return nil, 0, nil
	}
	// Pad to 2^q - 1 with identity equations x_i = 0, which decouple
	// from the real system because their off-diagonals are zero.
	q := gray.CeilLog2(n + 1)
	np := 1<<q - 1
	g := embed.SplitFor(mach.Dim(), 1, np) // layout choice irrelevant for Linear vectors
	lmap, err := embed.NewMap1D(np, g.D, embed.Block)
	if err != nil {
		return nil, 0, err
	}
	// The host-visible solution vector spans the padded length so its
	// map matches the working layout exactly; the driver slices the
	// real prefix off at the end.
	xOut, err := core.NewVector(g, np, core.Linear, embed.Block, 0, false)
	if err != nil {
		return nil, 0, err
	}

	elapsed, err := mach.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		pid := p.ID()
		myCoord := gray.Decode(pid)
		// Local slices of the padded band vectors.
		bs := lmap.B
		la := make([]float64, bs)
		lb := make([]float64, bs)
		lc := make([]float64, bs)
		ld := make([]float64, bs)
		lx := make([]float64, bs)
		globalOf := func(l int) int { return lmap.GlobalOf(myCoord, l) }
		for l := 0; l < bs; l++ {
			gi := globalOf(l)
			switch {
			case gi < 0:
				lb[l] = 1
			case gi < n:
				la[l], lb[l], lc[l], ld[l] = a[gi], b[gi], c[gi], d[gi]
			default:
				lb[l] = 1 // padding equation
			}
		}
		ownerOf := func(gi int) int { return gray.Encode(lmap.CoordOf(gi)) }
		localOf := func(gi int) int { return lmap.LocalOf(gi) }
		// fetch gathers what serve answers for a set of global indices
		// through one batched routing round trip.
		fetch := func(idx []int, serve func(l int) []float64) map[int][]float64 {
			want := router.NewBatch(p, len(idx), 0)
			for _, gi := range idx {
				want.Ask(ownerOf(gi), gi)
			}
			got := want.Request(p, e.NextTag2(), func(key int) []float64 { return serve(localOf(key)) })
			out := make(map[int][]float64, len(idx))
			for q2, words, ok := got.Next(); ok; q2, words, ok = got.Next() {
				out[idx[q2]] = words
			}
			return out
		}
		activeAt := func(s int) []int {
			// Global indices i in my block with (i+1) divisible by 2^(s+1).
			step := 1 << (s + 1)
			var act []int
			for l := 0; l < bs; l++ {
				gi := globalOf(l)
				if gi >= 0 && (gi+1)%step == 0 && gi < np {
					act = append(act, gi)
				}
			}
			return act
		}

		// Reduction: after level s, the equations with (i+1) % 2^(s+1)
		// == 0 form a tridiagonal system among themselves at stride
		// 2^(s+1).
		for s := 0; s < q-1; s++ {
			h := 1 << s
			act := activeAt(s)
			var need []int
			for _, gi := range act {
				need = append(need, gi-h)
				if gi+h < np {
					need = append(need, gi+h)
				}
			}
			eq := make([]float64, 4) // Request copies each answer before the next
			vals := fetch(need, func(l int) []float64 {
				eq[0], eq[1], eq[2], eq[3] = la[l], lb[l], lc[l], ld[l]
				return eq
			})
			flops := 0
			for _, gi := range act {
				l := localOf(gi)
				lo := vals[gi-h]
				hi := []float64{0, 1, 0, 0}
				if gi+h < np {
					hi = vals[gi+h]
				}
				alpha := la[l] / lo[1]
				gamma := lc[l] / hi[1]
				la[l] = -alpha * lo[0]
				lc[l] = -gamma * hi[2]
				lb[l] = lb[l] - alpha*lo[2] - gamma*hi[0]
				ld[l] = ld[l] - alpha*lo[3] - gamma*hi[3]
				flops += 12
			}
			p.Compute(flops)
		}
		// Apex: the single equation at i = 2^(q-1) - 1.
		apex := 1<<(q-1) - 1
		if ownerOf(apex) == pid {
			l := localOf(apex)
			lx[l] = ld[l] / lb[l]
			p.Compute(1)
		}
		// Back substitution, level by level down.
		for s := q - 2; s >= 0; s-- {
			h := 1 << s
			// Solve the equations that were reduced INTO at level s:
			// indices with (i+1) % 2^(s+1) == 2^s (i.e. active at level
			// s but not above).
			step := 1 << (s + 1)
			var act []int
			for l := 0; l < bs; l++ {
				gi := globalOf(l)
				if gi >= 0 && gi < np && (gi+1)%step == h {
					act = append(act, gi)
				}
			}
			var need []int
			for _, gi := range act {
				if gi-h >= 0 {
					need = append(need, gi-h)
				}
				if gi+h < np {
					need = append(need, gi+h)
				}
			}
			xs := fetch(need, func(l int) []float64 { return lx[l : l+1] })
			flops := 0
			for _, gi := range act {
				l := localOf(gi)
				xm, xp2 := 0.0, 0.0
				if gi-h >= 0 {
					xm = xs[gi-h][0]
				}
				if gi+h < np {
					xp2 = xs[gi+h][0]
				}
				lx[l] = (ld[l] - la[l]*xm - lc[l]*xp2) / lb[l]
				flops += 5
			}
			p.Compute(flops)
		}
		// Land the solution in the host vector (same layout by
		// construction: both use the padded-length block map).
		for l := 0; l < bs; l++ {
			if gi := globalOf(l); gi >= 0 {
				xOut.L(pid)[xOut.Map.LocalOf(gi)] = lx[l]
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return xOut.ToSlice()[:n], elapsed, nil
}

// TridiagSystem is one independent tridiagonal system for the batch
// solver.
type TridiagSystem struct {
	A, B, C, D []float64
}

// SolveTridiagBatch solves many independent tridiagonal systems at
// once by partitioning whole systems over the processors — the
// "embarrassingly parallel case" that the tridiagonal-solver
// literature proves optimal when there are at least as many systems as
// processors (the Alternating Direction Method produces exactly this
// workload; see examples/adi). Systems are dealt round-robin, scattered
// through one routing operation, solved locally with the Thomas
// recurrence, and gathered back. It returns one solution per system
// and the simulated elapsed time.
func SolveTridiagBatch(mach *hypercube.Machine, systems []TridiagSystem) ([][]float64, costmodel.Time, error) {
	ns := len(systems)
	if ns == 0 {
		return nil, 0, nil
	}
	for si, sys := range systems {
		n := len(sys.B)
		if len(sys.A) != n || len(sys.C) != n || len(sys.D) != n {
			return nil, 0, fmt.Errorf("apps: system %d has ragged bands", si)
		}
	}
	p := mach.P()
	results := make([][]float64, ns)
	elapsed, err := mach.Run(func(pr *hypercube.Proc) {
		pid := pr.ID()
		// Scatter: processor 0 owns the input (host data); it routes
		// each system's bands to the system's home processor as one
		// combined message. (A real application would already have the
		// data distributed; charging the scatter keeps the comparison
		// honest.)
		var out router.Batch // routes nothing but on processor 0
		if pid == 0 {
			words := 0
			for _, sys := range systems {
				words += 4 * len(sys.B)
			}
			out = router.NewBatch(pr, ns, words)
			for si, sys := range systems {
				n := len(sys.B)
				bands := out.Add(si%p, si, 4*n)
				copy(bands, sys.A)
				copy(bands[n:], sys.B)
				copy(bands[2*n:], sys.C)
				copy(bands[3*n:], sys.D)
			}
		}
		mine := out.Route(pr, 1)
		// Local Thomas solves, one per owned system.
		back := router.NewBatch(pr, 0, 0)
		for si, bands, ok := mine.Next(); ok; si, bands, ok = mine.Next() {
			n := len(bands) / 4
			a, b := bands[:n], bands[n:2*n]
			c, d := bands[2*n:3*n], bands[3*n:]
			x, err := serial.SolveTridiag(a, b, c, d)
			if err != nil {
				panic(fmt.Errorf("apps: system %d: %w", si, err))
			}
			pr.Compute(8 * n)
			copy(back.Add(0, si, n), x)
		}
		gathered := back.Route(pr, 2)
		for si, x, ok := gathered.Next(); ok; si, x, ok = gathered.Next() {
			results[si] = x
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return results, elapsed, nil
}
