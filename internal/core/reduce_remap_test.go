package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
	"vmprim/internal/testutil"
)

func serialReduceRows(dm *serial.Mat, op Op) []float64 {
	out := make([]float64, dm.C)
	for j := range out {
		acc := op.identity()
		for i := 0; i < dm.R; i++ {
			acc = op.fold(acc, dm.At(i, j))
		}
		out[j] = acc
	}
	return out
}

func serialReduceCols(dm *serial.Mat, op Op) []float64 {
	out := make([]float64, dm.R)
	for i := range out {
		acc := op.identity()
		for j := 0; j < dm.C; j++ {
			acc = op.fold(acc, dm.At(i, j))
		}
		out[i] = acc
	}
	return out
}

func TestReduceRowsAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			for _, shape := range [][2]int{{1, 1}, {4, 4}, {9, 5}, {6, 11}} {
				dm := randDense(rng, shape[0], shape[1])
				a, _ := FromDense(g, dm, kind, kind)
				for _, op := range []Op{OpSum, OpMax, OpMin} {
					for _, repl := range []bool{false, true} {
						out, _ := NewVector(g, shape[1], RowAligned, kind, 0, repl)
						spmd(t, g, func(e *Env) {
							e.StoreVec(out, e.ReduceRows(a, op, repl))
						})
						vecEqual(t, out.ToSlice(), serialReduceRows(dm, op), 1e-12, "ReduceRows "+op.String())
						if err := out.CheckReplicas(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

func TestReduceColsAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			dm := randDense(rng, 7, 9)
			a, _ := FromDense(g, dm, kind, kind)
			for _, op := range []Op{OpSum, OpMax, OpMin} {
				for _, repl := range []bool{false, true} {
					out, _ := NewVector(g, 7, ColAligned, kind, 0, repl)
					spmd(t, g, func(e *Env) {
						e.StoreVec(out, e.ReduceCols(a, op, repl))
					})
					vecEqual(t, out.ToSlice(), serialReduceCols(dm, op), 1e-12, "ReduceCols "+op.String())
				}
			}
		}
	}
}

func TestReduceAll(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, g := range testGrids(t) {
		dm := randDense(rng, 6, 7)
		a, _ := FromDense(g, dm, embed.Block, embed.Cyclic)
		var sum, max, min float64
		spmd(t, g, func(e *Env) {
			s := e.ReduceAll(a, OpSum)
			mx := e.ReduceAll(a, OpMax)
			mn := e.ReduceAll(a, OpMin)
			if e.P.ID() == 0 {
				sum, max, min = s, mx, mn
			}
		})
		wantSum, wantMax, wantMin := 0.0, math.Inf(-1), math.Inf(1)
		for _, v := range dm.A {
			wantSum += v
			wantMax = math.Max(wantMax, v)
			wantMin = math.Min(wantMin, v)
		}
		if math.Abs(sum-wantSum) > 1e-10 || max != wantMax || min != wantMin {
			t.Fatalf("ReduceAll: %v %v %v, want %v %v %v", sum, max, min, wantSum, wantMax, wantMin)
		}
	}
}

func TestReduceColLoc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, g := range testGrids(t) {
		for _, kinds := range mapKindPairs {
			dm := randDense(rng, 11, 5)
			a, _ := FromDense(g, dm, kinds[0], kinds[1])
			for _, j := range []int{0, 3, 4} {
				for _, bounds := range [][2]int{{0, 11}, {4, 11}, {4, 5}, {7, 7}} {
					for _, op := range []LocOp{LocMax, LocMin, LocMaxAbs} {
						what := fmt.Sprintf("grid %d/%d maps %v col %d", g.Dr, g.Dc, kinds, j)
						checkLoc(t, g, what, op, bounds, func(i int) float64 { return dm.At(i, j) },
							func(e *Env) (float64, int) { return e.ReduceColLoc(a, j, bounds[0], bounds[1], op) })
					}
				}
			}
		}
	}
}

func TestReduceRowLoc(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, g := range testGrids(t) {
		for _, kinds := range mapKindPairs {
			dm := randDense(rng, 5, 11)
			a, _ := FromDense(g, dm, kinds[0], kinds[1])
			for _, i := range []int{0, 3, 4} {
				for _, bounds := range [][2]int{{0, 11}, {3, 9}, {4, 5}, {10, 10}} {
					for _, op := range []LocOp{LocMax, LocMin, LocMaxAbs} {
						what := fmt.Sprintf("grid %d/%d maps %v row %d", g.Dr, g.Dc, kinds, i)
						checkLoc(t, g, what, op, bounds, func(j int) float64 { return dm.At(i, j) },
							func(e *Env) (float64, int) { return e.ReduceRowLoc(a, i, bounds[0], bounds[1], op) })
					}
				}
			}
		}
	}
}

// checkLoc runs a loc-reduction on g and compares processor 0's result
// with a serial scan of at over the bounds; what names the case.
func checkLoc(t *testing.T, g embed.Grid, what string, op LocOp, bounds [2]int, at func(int) float64, reduce func(e *Env) (float64, int)) {
	t.Helper()
	var gotVal float64
	var gotIdx int
	spmd(t, g, func(e *Env) {
		v, idx := reduce(e)
		if e.P.ID() == 0 {
			gotVal, gotIdx = v, idx
		}
	})
	wantVal, _ := op.identity()
	wantIdx := -1
	for k := bounds[0]; k < bounds[1]; k++ {
		v := op.value(at(k))
		if wantIdx == -1 || op.better(wantVal, float64(wantIdx), v, float64(k)) {
			wantVal, wantIdx = v, k
		}
	}
	if gotIdx != wantIdx {
		t.Fatalf("%s %v %v: idx %d, want %d", what, op, bounds, gotIdx, wantIdx)
	}
	if wantIdx >= 0 && math.Abs(gotVal-wantVal) > 1e-12 {
		t.Fatalf("%s %v %v: val %v, want %v", what, op, bounds, gotVal, wantVal)
	}
}

func TestZipLocVecRatioTest(t *testing.T) {
	// The simplex ratio test: minimize rhs[i]/col[i] over col[i] > eps.
	rng := rand.New(rand.NewSource(25))
	for _, g := range testGrids(t) {
		n := 9
		col := make([]float64, n)
		rhs := make([]float64, n)
		for i := range col {
			col[i] = rng.NormFloat64() // mixed signs: some rows invalid
			rhs[i] = rng.Float64() * 10
		}
		vcol, _ := VectorFromSlice(g, col, ColAligned, embed.Block, 0, true)
		vrhs, _ := VectorFromSlice(g, rhs, ColAligned, embed.Block, 0, true)
		var gotVal float64
		var gotIdx int
		spmd(t, g, func(e *Env) {
			v, idx := e.ZipLocVec(vcol, vrhs, 0, n, func(_ int, c, r float64) (float64, bool) {
				if c <= 1e-9 {
					return 0, false
				}
				return r / c, true
			}, LocMin)
			if e.P.ID() == 0 {
				gotVal, gotIdx = v, idx
			}
		})
		wantVal, wantIdx := math.Inf(1), -1
		for i := 0; i < n; i++ {
			if col[i] <= 1e-9 {
				continue
			}
			if r := rhs[i] / col[i]; r < wantVal {
				wantVal, wantIdx = r, i
			}
		}
		if gotIdx != wantIdx || (wantIdx >= 0 && math.Abs(gotVal-wantVal) > 1e-12) {
			t.Fatalf("ratio test: (%v,%d), want (%v,%d)", gotVal, gotIdx, wantVal, wantIdx)
		}
	}
}

func TestZipLocVecEmpty(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	col := []float64{-1, -2, -3, -4}
	vcol, _ := VectorFromSlice(g, col, ColAligned, embed.Block, 0, true)
	spmd(t, g, func(e *Env) {
		_, idx := e.ZipLocVec(vcol, vcol, 0, 4, func(_ int, c, r float64) (float64, bool) {
			return 0, false // nothing valid
		}, LocMin)
		if idx != -1 {
			panic("expected empty result")
		}
	})
}

func TestReduceVec(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, g := range testGrids(t) {
		x := make([]float64, 10)
		want := 0.0
		for i := range x {
			x[i] = rng.NormFloat64()
			want += x[i]
		}
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			for _, repl := range []bool{false, true} {
				if layout == Linear && repl {
					continue
				}
				v, _ := VectorFromSlice(g, x, layout, embed.Block, 0, repl)
				var got float64
				spmd(t, g, func(e *Env) {
					s := e.ReduceVec(v, OpSum)
					if e.P.ID() == 0 {
						got = s
					}
				})
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("%v repl=%v: sum %v, want %v (replication double-count?)", layout, repl, got, want)
				}
			}
		}
	}
}

func TestRealignAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	type spec struct {
		layout Layout
		repl   bool
	}
	specs := []spec{{Linear, false}, {RowAligned, false}, {RowAligned, true}, {ColAligned, false}, {ColAligned, true}}
	kinds := []embed.MapKind{embed.Block, embed.Cyclic}
	for _, g := range testGrids(t) {
		// 11 and 3 are multiples of no coordinate count above 1, so a
		// Block piece can hold fewer elements than its slots, or none.
		for _, n := range []int{11, 3} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for _, fromKind := range kinds {
				for _, toKind := range kinds {
					for _, from := range specs {
						for _, to := range specs {
							fromHome, toHome := 0, 0
							if from.layout == RowAligned {
								fromHome = g.PRows() - 1
							}
							if from.layout == ColAligned {
								fromHome = g.PCols() - 1
							}
							v, err := VectorFromSlice(g, x, from.layout, fromKind, fromHome, from.repl)
							if err != nil {
								t.Fatal(err)
							}
							out, err := NewVector(g, n, to.layout, toKind, toHome, to.repl)
							if err != nil {
								t.Fatal(err)
							}
							spmd(t, g, func(e *Env) {
								w := e.Realign(v, to.layout, toKind, toHome, to.repl)
								e.StoreVec(out, w)
							})
							what := fmt.Sprintf("Realign n=%d %v %v -> %v %v on %dx%d", n, from.layout, fromKind, to.layout, toKind, g.PRows(), g.PCols())
							vecEqual(t, out.ToSlice(), x, 0, what)
							if err := out.CheckReplicas(); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
}

func TestToLinearRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, g := range testGrids(t) {
		x := make([]float64, 13)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		v, _ := VectorFromSlice(g, x, RowAligned, embed.Block, 0, true)
		out, _ := NewVector(g, 13, Linear, embed.Block, 0, false)
		spmd(t, g, func(e *Env) {
			e.StoreVec(out, e.ToLinear(v))
		})
		vecEqual(t, out.ToSlice(), x, 0, "ToLinear")
	}
}

func TestTransposeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, g := range testGrids(t) {
		// Every source kind pair into every destination kind pair: the
		// kinds swapped with the axes (Transpose's choice), mixed kinds,
		// and a destination whose kinds are the source's unswapped,
		// since where an element goes is dst's maps' business.
		for _, src := range mapKindPairs {
			for _, to := range mapKindPairs {
				for _, shape := range [][2]int{{1, 5}, {5, 1}, {4, 4}, {7, 9}, {9, 7}} {
					dm := randDense(rng, shape[0], shape[1])
					a, _ := FromDense(g, dm, src[0], src[1])
					out, _ := NewMatrix(g, shape[1], shape[0], to[0], to[1])
					spmd(t, g, func(e *Env) {
						e.TransposeInto(out, a)
					})
					what := fmt.Sprintf("Transpose %dx%d %v/%v -> %v/%v on %dx%d", shape[0], shape[1], src[0], src[1], to[0], to[1], g.PRows(), g.PCols())
					matEqual(t, out.ToDense(), dm.Transpose(), 0, what)
				}
			}
		}
	}
}

// TestRemapZeroExtent: an embedding change of nothing routes nothing
// and fails nowhere, on every grid, whatever the map kinds: a matrix
// with no rows, no columns or neither has no slot to find a first
// global index in.
func TestRemapZeroExtent(t *testing.T) {
	layouts := []Layout{Linear, RowAligned, ColAligned}
	for _, g := range testGrids(t) {
		for _, shape := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
			for _, kinds := range mapKindPairs {
				a, err := NewMatrix(g, shape[0], shape[1], kinds[0], kinds[1])
				if err != nil {
					t.Fatal(err)
				}
				out, err := NewMatrix(g, shape[1], shape[0], kinds[1], kinds[0])
				if err != nil {
					t.Fatal(err)
				}
				spmd(t, g, func(e *Env) {
					e.TransposeInto(out, a)
					if tm := e.Transpose(a); tm.Rows != shape[1] || tm.Cols != shape[0] {
						t.Errorf("Transpose of %dx%d is %dx%d", shape[0], shape[1], tm.Rows, tm.Cols)
					}
				})
				if d := out.ToDense(); d.R != shape[1] || d.C != shape[0] {
					t.Fatalf("TransposeInto of %dx%d gave %dx%d", shape[0], shape[1], d.R, d.C)
				}
			}
		}
		for _, from := range layouts {
			for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
				v, err := NewVector(g, 0, from, kind, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, to := range layouts {
					out, err := NewVector(g, 0, to, kind, 0, true)
					if err != nil {
						t.Fatal(err)
					}
					spmd(t, g, func(e *Env) { e.StoreVec(out, e.Realign(v, to, kind, 0, true)) })
					if got := out.ToSlice(); len(got) != 0 {
						t.Fatalf("Realign of an empty %v vector to %v gave %v", from, to, got)
					}
				}
			}
		}
	}
}

func TestTransposeTwiceIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, g := range testGrids(t) {
		dm := randDense(rng, 6, 9)
		a, _ := FromDense(g, dm, embed.Block, embed.Cyclic)
		out, _ := NewMatrix(g, 6, 9, embed.Block, embed.Cyclic)
		spmd(t, g, func(e *Env) {
			tm := e.Transpose(a)
			e.TransposeInto(out, tm)
		})
		matEqual(t, out.ToDense(), dm, 0, "double transpose")
	}
}

// TestPrimitiveCompositionMatvec is the integration check that the
// paper's vector-matrix multiply composition — Distribute the vector
// over the rows, elementwise multiply, Reduce the rows — computes
// x*A, using only the four primitives.
func TestPrimitiveCompositionMatvec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range testGrids(t) {
		for _, shape := range [][2]int{{4, 4}, {7, 5}, {3, 9}} {
			dm := randDense(rng, shape[0], shape[1])
			x := make([]float64, shape[0])
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			a, _ := FromDense(g, dm, embed.Block, embed.Block)
			xv, _ := VectorFromSlice(g, x, ColAligned, embed.Block, 0, false)
			out, _ := NewVector(g, shape[1], RowAligned, embed.Block, 0, true)
			spmd(t, g, func(e *Env) {
				xs := e.SpreadCols(xv, shape[1], embed.Block) // Distribute
				prod := e.CopyMatrix(a)
				e.ZipMatrix(prod, xs, func(av, xvv float64) float64 { return av * xvv }, 1)
				y := e.ReduceRows(prod, OpSum, true) // Reduce
				e.StoreVec(out, y)
			})
			vecEqual(t, out.ToSlice(), serial.VecMatMul(x, dm), 1e-10, "primitive matvec")
		}
	}
}

func TestReduceScatterPathInLongReduce(t *testing.T) {
	// Long pieces push AllReduce onto the halving+doubling path, which
	// takes two tags; the result must not depend on which path was
	// taken, and the primitive after it in the same Run must find its
	// own tag unused.
	g, _ := embed.NewGrid(3, 2)
	rng := rand.New(rand.NewSource(32))
	dm := randDense(rng, 64, 320)
	a, _ := FromDense(g, dm, embed.Block, embed.Block)
	if k, n := g.Dr, a.CMap.B; !costmodel.CM2().PreferTwoPhase(k, n) {
		t.Fatalf("a %d-word piece over %d dimensions takes recursive doubling", n, k)
	}
	rows, _ := NewVector(g, 320, RowAligned, embed.Block, 0, true)
	cols, _ := NewVector(g, 64, ColAligned, embed.Block, 0, true)
	spmd(t, g, func(e *Env) {
		e.StoreVec(rows, e.ReduceRows(a, OpSum, true))
		e.StoreVec(cols, e.ReduceCols(a, OpSum, true))
	})
	vecEqual(t, rows.ToSlice(), serialReduceRows(dm, OpSum), 1e-10, "long ReduceRows")
	vecEqual(t, cols.ToSlice(), serialReduceCols(dm, OpSum), 1e-10, "ReduceCols after it")
	for _, v := range []*Vector{rows, cols} {
		if err := v.CheckReplicas(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransposeSteadyStateAllocs(t *testing.T) {
	// Transpose at d=6, n=128 (one 16x16 block per processor, one
	// combined message each). Measured: 2,957 objects per run with the
	// map/sort/append remap over the decode/encode router; 700 (10.9
	// per processor: Env, result matrix, items, counts, slab, message
	// list, wire buffer, delivered list) with the counting sort over the
	// wire-form router; 553 (8.6 per processor) with the items gone and
	// the router holding runs instead of merging them; 297 (4.6 per
	// processor) with the counts pooled and the sort filling the
	// router's batch in place; 258 (4.0 per processor) with the router
	// forwarding every phase's traffic in place; 1 with the router's
	// wires reused two routes later. The guard allows 4 per run, so a
	// wire made afresh on every processor fails it.
	g, err := embed.NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := FromDense(g, randDense(rand.New(rand.NewSource(47)), 128, 128), embed.Block, embed.Block)
	if err != nil {
		t.Fatal(err)
	}
	m := hypercube.MustNew(g.D, costmodel.CM2())
	defer m.Close()
	run := func() {
		if _, err := m.Run(func(p *hypercube.Proc) { NewEnv(p, g).Transpose(a) }); err != nil {
			t.Fatal(err)
		}
	}
	per := testutil.MallocsPerRun(3, 10, run)
	t.Logf("Transpose d=6 n=128: %.0f objects per run, %.1f per processor", per, per/float64(g.P()))
	if per > 4 {
		t.Fatalf("Transpose allocates %.0f objects per run, want <= 4", per)
	}
}

// BenchmarkTransposeRouted is the route workload's transpose: d = 8,
// n = 256, block/block, one Run per iteration. The allocation columns
// price remap and the router per call.
func BenchmarkTransposeRouted(b *testing.B) {
	const n = 256
	g := embed.SplitFor(8, n, n)
	a, err := FromDense(g, randDense(rand.New(rand.NewSource(11)), n, n), embed.Block, embed.Block)
	if err != nil {
		b.Fatal(err)
	}
	m := hypercube.MustNew(g.D, costmodel.CM2())
	defer m.Close()
	run := func() {
		if _, err := m.Run(func(p *hypercube.Proc) { NewEnv(p, g).Transpose(a) }); err != nil {
			b.Fatal(err)
		}
	}
	run() // create the coroutines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
