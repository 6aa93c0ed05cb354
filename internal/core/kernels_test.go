package core

import (
	"math/rand"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/testutil"
)

// The fused UpdateOuterSub/UpdateOuterAddMul kernels must be
// element-for-element identical to the generic closure form they
// replaced in the apps: same windows, same arithmetic, same flop
// charges (checked via identical simulated Elapsed).

func TestFusedOuterUpdatesMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			for _, win := range [][4]int{{0, 7, 0, 6}, {1, 6, 2, 5}, {3, 3, 0, 6}, {0, 7, 4, 4}} {
				dm := randDense(rng, 7, 6)
				cvals := make([]float64, 7)
				rvals := make([]float64, 6)
				for i := range cvals {
					cvals[i] = rng.NormFloat64()
				}
				for i := range rvals {
					rvals[i] = rng.NormFloat64()
				}
				rlo, rhi, clo, chi := win[0], win[1], win[2], win[3]

				run := func(body func(e *Env, a *Matrix, cv, rv *Vector)) (*Matrix, costmodel.Time) {
					a, _ := FromDense(g, dm, kind, kind)
					cv, _ := VectorFromSlice(g, cvals, ColAligned, kind, 0, true)
					rv, _ := VectorFromSlice(g, rvals, RowAligned, kind, 0, true)
					m := hypercube.MustNew(g.D, costmodel.CM2())
					el, err := m.Run(func(p *hypercube.Proc) {
						body(NewEnv(p, g), a, cv, rv)
					})
					if err != nil {
						t.Fatal(err)
					}
					return a, el
				}

				aSub, elSub := run(func(e *Env, a *Matrix, cv, rv *Vector) {
					e.UpdateOuterSub(a, cv, rv, rlo, rhi, clo, chi)
				})
				aGen, elGen := run(func(e *Env, a *Matrix, cv, rv *Vector) {
					e.UpdateOuter(a, cv, rv, rlo, rhi, clo, chi,
						func(aij, ci, rj float64) float64 { return aij - ci*rj }, 2)
				})
				matEqual(t, aSub.ToDense(), aGen.ToDense(), 0, "UpdateOuterSub vs generic")
				if elSub != elGen {
					t.Fatalf("UpdateOuterSub elapsed %v != generic %v", elSub, elGen)
				}

				aAdd, elAdd := run(func(e *Env, a *Matrix, cv, rv *Vector) {
					e.UpdateOuterAddMul(a, cv, rv, rlo, rhi, clo, chi)
				})
				aGen2, elGen2 := run(func(e *Env, a *Matrix, cv, rv *Vector) {
					e.UpdateOuter(a, cv, rv, rlo, rhi, clo, chi,
						func(aij, ci, rj float64) float64 { return aij + ci*rj }, 2)
				})
				matEqual(t, aAdd.ToDense(), aGen2.ToDense(), 0, "UpdateOuterAddMul vs generic")
				if elAdd != elGen2 {
					t.Fatalf("UpdateOuterAddMul elapsed %v != generic %v", elAdd, elGen2)
				}
			}
		}
	}
}

func TestFoldKernelsMatchOpFold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 33)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, op := range []Op{OpSum, OpMax, OpMin} {
		// foldSlice against the Op's own fold, left to right.
		want := op.identity()
		for _, v := range xs {
			want = op.fold(want, v)
		}
		if got := foldSlice(op, op.identity(), xs); got != want {
			t.Fatalf("%v: foldSlice = %v, want %v", op, got, want)
		}
		// The combiner elementwise against fold.
		dst := make([]float64, len(xs))
		fillIdentity(dst, op)
		op.combiner()(dst, xs)
		for i, v := range xs {
			if w := op.fold(op.identity(), v); dst[i] != w {
				t.Fatalf("%v: combiner[%d] = %v, want %v", op, i, dst[i], w)
			}
		}
		// scanSlice against a serial inclusive prefix.
		ys := append([]float64(nil), xs...)
		total := scanSlice(op, ys)
		acc := op.identity()
		for i, v := range xs {
			acc = op.fold(acc, v)
			if ys[i] != acc {
				t.Fatalf("%v: scanSlice[%d] = %v, want %v", op, i, ys[i], acc)
			}
		}
		if total != acc {
			t.Fatalf("%v: scanSlice total = %v, want %v", op, total, acc)
		}
		// foldScalarInto against fold(s, x) with the scalar on the left,
		// matching the prefix-fixup orientation in ScanVec.
		zs := append([]float64(nil), xs...)
		s := rng.NormFloat64()
		foldScalarInto(op, zs, s)
		for i, v := range xs {
			if w := op.fold(s, v); zs[i] != w {
				t.Fatalf("%v: foldScalarInto[%d] = %v, want %v", op, i, zs[i], w)
			}
		}
	}
}

func TestReduceRowsSteadyStateAllocs(t *testing.T) {
	// After warmup, a ReduceRows run on a persistent machine must stay
	// within a small per-processor allocation budget: the result vector
	// header and storage plus the per-run Env. The seed code also
	// allocated message payloads, scratch pieces and 2^d-entry piece
	// tables per temp on every call, an order of magnitude more.
	g, err := embed.NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	dm := randDense(rng, 64, 64)
	a, err := FromDense(g, dm, embed.Block, embed.Block)
	if err != nil {
		t.Fatal(err)
	}
	m := hypercube.MustNew(g.D, costmodel.CM2())
	defer m.Close()
	body := func(p *hypercube.Proc) {
		e := NewEnv(p, g)
		e.ReduceRows(a, OpSum, true)
	}
	run := func() {
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	per := testutil.MallocsPerRun(5, 10, run)
	perProc := per / float64(g.P())
	if perProc > 10 {
		t.Fatalf("ReduceRows steady state allocates %.1f objects/proc/run, want <= 10", perProc)
	}
}
