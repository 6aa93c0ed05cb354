package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// testGrids covers degenerate, tall, wide and square processor grids.
func testGrids(t *testing.T) []embed.Grid {
	t.Helper()
	var gs []embed.Grid
	for _, split := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 0}, {0, 3}} {
		g, err := embed.NewGrid(split[0], split[1])
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// mapKindPairs lists every (row, column) map-kind combination.
var mapKindPairs = [][2]embed.MapKind{
	{embed.Block, embed.Block}, {embed.Block, embed.Cyclic},
	{embed.Cyclic, embed.Block}, {embed.Cyclic, embed.Cyclic},
}

// spmd runs body on a fresh CM2-parameter machine matching g.
func spmd(t *testing.T, g embed.Grid, body func(e *Env)) {
	t.Helper()
	m := hypercube.MustNew(g.D, costmodel.CM2())
	if _, err := m.Run(func(p *hypercube.Proc) { body(NewEnv(p, g)) }); err != nil {
		t.Fatal(err)
	}
}

func randDense(rng *rand.Rand, r, c int) *serial.Mat {
	dm := serial.NewMat(r, c)
	for i := range dm.A {
		dm.A[i] = rng.NormFloat64()
	}
	return dm
}

func matEqual(t *testing.T, got, want *serial.Mat, tol float64, what string) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.R, got.C, want.R, want.C)
	}
	for i := 0; i < got.R; i++ {
		for j := 0; j < got.C; j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > tol {
				t.Fatalf("%s: (%d,%d) = %v, want %v", what, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func vecEqual(t *testing.T, got, want []float64, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []embed.MapKind{embed.Block, embed.Cyclic}
	for _, g := range testGrids(t) {
		for _, rkind := range kinds {
			for _, ckind := range kinds {
				for _, shape := range [][2]int{{1, 1}, {4, 4}, {5, 7}, {8, 3}, {13, 13}} {
					dm := randDense(rng, shape[0], shape[1])
					a, err := FromDense(g, dm, rkind, ckind)
					if err != nil {
						t.Fatal(err)
					}
					// Every element sits where the maps say it does.
					for i := 0; i < dm.R; i++ {
						for j := 0; j < dm.C; j++ {
							slot := a.RMap.LocalOf(i)*a.CMap.B + a.CMap.LocalOf(j)
							if got := a.L(a.OwnerOf(i, j))[slot]; got != dm.At(i, j) {
								t.Fatalf("%v/%v %dx%d on %dx%d: (%d,%d) stored as %v, want %v",
									rkind, ckind, dm.R, dm.C, g.PRows(), g.PCols(), i, j, got, dm.At(i, j))
							}
						}
					}
					matEqual(t, a.ToDense(), dm, 0, "round trip")
				}
			}
		}
	}
}

func TestVectorFromSliceToSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range testGrids(t) {
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			for _, n := range []int{1, 3, 8, 17} {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for _, repl := range []bool{false, true} {
					if layout == Linear && repl {
						continue
					}
					for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
						// The last grid row or column as home, not just 0.
						home := 0
						switch layout {
						case RowAligned:
							home = g.PRows() - 1
						case ColAligned:
							home = g.PCols() - 1
						}
						v, err := VectorFromSlice(g, x, layout, kind, home, repl)
						if err != nil {
							t.Fatal(err)
						}
						for e, want := range x {
							if got := v.L(v.OwnerProcOf(e))[v.Map.LocalOf(e)]; got != want {
								t.Fatalf("%v %v repl=%v n=%d: element %d stored as %v, want %v", layout, kind, repl, n, e, got, want)
							}
						}
						vecEqual(t, v.ToSlice(), x, 0, "vector round trip")
						if err := v.CheckReplicas(); err != nil {
							t.Fatal(err)
						}
						// One corrupted word in the last copy of the last
						// element is a mismatch CheckReplicas must name.
						if v.copies() > 1 {
							last := v.holder(v.Map.CoordOf(n-1), v.copies()-1)
							v.L(last)[v.Map.LocalOf(n-1)]++
							if err := v.CheckReplicas(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("element %d:", n-1)) {
								t.Fatalf("%v %v n=%d: CheckReplicas = %v after corrupting element %d on proc %d", layout, kind, n, err, n-1, last)
							}
						}
					}
				}
			}
		}
	}
}

func TestExtractRowValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			dm := randDense(rng, 9, 6)
			a, _ := FromDense(g, dm, kind, kind)
			for _, i := range []int{0, 4, 8} {
				for _, repl := range []bool{false, true} {
					out, _ := NewVector(g, 6, RowAligned, kind, a.RMap.CoordOf(i), repl)
					spmd(t, g, func(e *Env) {
						v := e.ExtractRow(a, i, repl)
						e.StoreVec(out, v)
					})
					vecEqual(t, out.ToSlice(), dm.Row(i), 0, "ExtractRow")
					if err := out.CheckReplicas(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func TestExtractColValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			dm := randDense(rng, 6, 9)
			a, _ := FromDense(g, dm, kind, kind)
			for _, j := range []int{0, 5, 8} {
				for _, repl := range []bool{false, true} {
					out, _ := NewVector(g, 6, ColAligned, kind, a.CMap.CoordOf(j), repl)
					spmd(t, g, func(e *Env) {
						v := e.ExtractCol(a, j, repl)
						e.StoreVec(out, v)
					})
					vecEqual(t, out.ToSlice(), dm.Col(j), 0, "ExtractCol")
				}
			}
		}
	}
}

func TestInsertRowAllHomes(t *testing.T) {
	// Insert a row-aligned vector homed on every possible grid row
	// into every matrix row: exercises the implicit home-to-owner
	// moves.
	rng := rand.New(rand.NewSource(5))
	for _, g := range testGrids(t) {
		dm := randDense(rng, 5, 6)
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for home := 0; home < g.PRows(); home++ {
			for i := 0; i < 5; i++ {
				a, _ := FromDense(g, dm, embed.Block, embed.Block)
				v, _ := VectorFromSlice(g, x, RowAligned, embed.Block, home, false)
				spmd(t, g, func(e *Env) {
					e.InsertRow(a, v, i)
				})
				want := dm.Clone()
				want.SetRow(i, x)
				matEqual(t, a.ToDense(), want, 0, "InsertRow")
			}
		}
	}
}

func TestInsertColAllHomes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, g := range testGrids(t) {
		dm := randDense(rng, 6, 5)
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for home := 0; home < g.PCols(); home++ {
			for j := 0; j < 5; j++ {
				a, _ := FromDense(g, dm, embed.Block, embed.Block)
				v, _ := VectorFromSlice(g, x, ColAligned, embed.Block, home, false)
				spmd(t, g, func(e *Env) {
					e.InsertCol(a, v, j)
				})
				want := dm.Clone()
				want.SetCol(j, x)
				matEqual(t, a.ToDense(), want, 0, "InsertCol")
			}
		}
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range testGrids(t) {
		dm := randDense(rng, 7, 7)
		a, _ := FromDense(g, dm, embed.Cyclic, embed.Block)
		spmd(t, g, func(e *Env) {
			// Move row 2 into row 5 via extract/insert.
			v := e.ExtractRow(a, 2, false)
			e.InsertRow(a, v, 5)
		})
		want := dm.Clone()
		want.SetRow(5, dm.Row(2))
		matEqual(t, a.ToDense(), want, 0, "extract/insert")
	}
}

func TestSwapRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			dm := randDense(rng, 9, 5)
			a, _ := FromDense(g, dm, kind, kind)
			spmd(t, g, func(e *Env) {
				e.SwapRows(a, 1, 7)
				e.SwapRows(a, 3, 3) // no-op
			})
			want := dm.Clone()
			want.SetRow(1, dm.Row(7))
			want.SetRow(7, dm.Row(1))
			matEqual(t, a.ToDense(), want, 0, "SwapRows")
		}
	}
}

func TestElemAtAndSetElem(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, g := range testGrids(t) {
		dm := randDense(rng, 6, 7)
		a, _ := FromDense(g, dm, embed.Block, embed.Cyclic)
		got := make([][]float64, g.P())
		spmd(t, g, func(e *Env) {
			got[e.P.ID()] = []float64{e.ElemAt(a, 3, 4)}
			e.SetElem(a, 3, 4, 42)
			got[e.P.ID()] = append(got[e.P.ID()], e.ElemAt(a, 3, 4))
		})
		for pid := 0; pid < g.P(); pid++ {
			if got[pid][0] != dm.At(3, 4) {
				t.Fatalf("proc %d ElemAt = %v, want %v", pid, got[pid][0], dm.At(3, 4))
			}
			if got[pid][1] != 42 {
				t.Fatalf("proc %d after SetElem = %v", pid, got[pid][1])
			}
		}
	}
}

func TestVecElemAt(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, g := range testGrids(t) {
		x := make([]float64, 9)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			for _, repl := range []bool{false, true} {
				if layout == Linear && repl {
					continue
				}
				v, _ := VectorFromSlice(g, x, layout, embed.Block, 0, repl)
				got := make([]float64, g.P())
				spmd(t, g, func(e *Env) {
					got[e.P.ID()] = e.VecElemAt(v, 5)
				})
				for pid := 0; pid < g.P(); pid++ {
					if got[pid] != x[5] {
						t.Fatalf("%v repl=%v proc %d: %v, want %v", layout, repl, pid, got[pid], x[5])
					}
				}
			}
		}
	}
}

func TestDistributeReplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range testGrids(t) {
		x := make([]float64, 7)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for home := 0; home < g.PRows(); home++ {
			v, _ := VectorFromSlice(g, x, RowAligned, embed.Block, home, false)
			out, _ := NewVector(g, 7, RowAligned, embed.Block, home, true)
			spmd(t, g, func(e *Env) {
				e.StoreVec(out, e.Distribute(v))
			})
			vecEqual(t, out.ToSlice(), x, 0, "Distribute")
			if err := out.CheckReplicas(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDistributeColAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, g := range testGrids(t) {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for home := 0; home < g.PCols(); home++ {
			v, _ := VectorFromSlice(g, x, ColAligned, embed.Cyclic, home, false)
			out, _ := NewVector(g, 6, ColAligned, embed.Cyclic, home, true)
			spmd(t, g, func(e *Env) {
				e.StoreVec(out, e.Distribute(v))
			})
			vecEqual(t, out.ToSlice(), x, 0, "Distribute col")
			if err := out.CheckReplicas(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSpreadRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, g := range testGrids(t) {
		for _, kinds := range mapKindPairs {
			for _, replicated := range []bool{false, true} {
				x := make([]float64, 5)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				v, _ := VectorFromSlice(g, x, RowAligned, kinds[1], 0, replicated)
				out, _ := NewMatrix(g, 6, 5, kinds[0], kinds[1])
				spmd(t, g, func(e *Env) {
					e.StoreMatrix(out, e.SpreadRows(v, 6, kinds[0]))
				})
				want := serial.NewMat(6, 5)
				for i := 0; i < 6; i++ {
					want.SetRow(i, x)
				}
				matEqual(t, out.ToDense(), want, 0, fmt.Sprintf("SpreadRows %v replicated=%v", kinds, replicated))
			}
		}
	}
}

func TestSpreadCols(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, g := range testGrids(t) {
		for _, kinds := range mapKindPairs {
			for _, replicated := range []bool{false, true} {
				x := make([]float64, 6)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				v, _ := VectorFromSlice(g, x, ColAligned, kinds[0], 0, replicated)
				out, _ := NewMatrix(g, 6, 5, kinds[0], kinds[1])
				spmd(t, g, func(e *Env) {
					e.StoreMatrix(out, e.SpreadCols(v, 5, kinds[1]))
				})
				want := serial.NewMat(6, 5)
				for j := 0; j < 5; j++ {
					want.SetCol(j, x)
				}
				matEqual(t, out.ToDense(), want, 0, fmt.Sprintf("SpreadCols %v replicated=%v", kinds, replicated))
			}
		}
	}
}

func TestMapRangeRestriction(t *testing.T) {
	for _, g := range testGrids(t) {
		dm := serial.NewMat(6, 6)
		a, _ := FromDense(g, dm, embed.Block, embed.Block)
		spmd(t, g, func(e *Env) {
			e.MapRange(a, 2, 5, 1, 4, func(i, j int, v float64) float64 {
				return float64(10*i + j)
			}, 1)
		})
		got := a.ToDense()
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				want := 0.0
				if i >= 2 && i < 5 && j >= 1 && j < 4 {
					want = float64(10*i + j)
				}
				if got.At(i, j) != want {
					t.Fatalf("(%d,%d) = %v, want %v", i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestZipMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, g := range testGrids(t) {
		d1 := randDense(rng, 5, 7)
		d2 := randDense(rng, 5, 7)
		a, _ := FromDense(g, d1, embed.Cyclic, embed.Cyclic)
		b, _ := FromDense(g, d2, embed.Cyclic, embed.Cyclic)
		spmd(t, g, func(e *Env) {
			e.ZipMatrix(a, b, func(x, y float64) float64 { return x * y }, 1)
		})
		want := serial.NewMat(5, 7)
		for i := range want.A {
			want.A[i] = d1.A[i] * d2.A[i]
		}
		matEqual(t, a.ToDense(), want, 1e-15, "ZipMatrix")
	}
}

func TestUpdateOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			dm := randDense(rng, 7, 6)
			cvals := make([]float64, 7)
			rvals := make([]float64, 6)
			for i := range cvals {
				cvals[i] = rng.NormFloat64()
			}
			for i := range rvals {
				rvals[i] = rng.NormFloat64()
			}
			a, _ := FromDense(g, dm, kind, kind)
			cv, _ := VectorFromSlice(g, cvals, ColAligned, kind, 0, true)
			rv, _ := VectorFromSlice(g, rvals, RowAligned, kind, 0, true)
			rlo, rhi, clo, chi := 1, 6, 2, 5
			spmd(t, g, func(e *Env) {
				e.UpdateOuter(a, cv, rv, rlo, rhi, clo, chi,
					func(aij, ci, rj float64) float64 { return aij - ci*rj }, 2)
			})
			want := dm.Clone()
			for i := rlo; i < rhi; i++ {
				for j := clo; j < chi; j++ {
					want.Set(i, j, dm.At(i, j)-cvals[i]*rvals[j])
				}
			}
			matEqual(t, a.ToDense(), want, 1e-14, "UpdateOuter")
		}
	}
}

func TestUpdateOuterRequiresReplication(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	a, _ := NewMatrix(g, 4, 4, embed.Block, embed.Block)
	cv, _ := NewVector(g, 4, ColAligned, embed.Block, 0, false)
	rv, _ := NewVector(g, 4, RowAligned, embed.Block, 0, true)
	m := hypercube.MustNew(g.D, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		e := NewEnv(p, g)
		e.UpdateOuter(a, cv, rv, 0, 4, 0, 4, func(x, c, r float64) float64 { return x }, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "replicated") {
		t.Fatalf("err = %v", err)
	}
}

func TestMapAndZipVec(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range testGrids(t) {
		x := make([]float64, 8)
		y := make([]float64, 8)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		vx, _ := VectorFromSlice(g, x, ColAligned, embed.Block, 0, true)
		vy, _ := VectorFromSlice(g, y, ColAligned, embed.Block, 0, true)
		spmd(t, g, func(e *Env) {
			e.MapVec(vx, func(gi int, v float64) float64 { return v * 2 }, 1)
			e.ZipVec(vx, vy, func(a, b float64) float64 { return a + b }, 1)
		})
		want := make([]float64, 8)
		for i := range want {
			want[i] = 2*x[i] + y[i]
		}
		vecEqual(t, vx.ToSlice(), want, 1e-15, "MapVec+ZipVec")
		if err := vx.CheckReplicas(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCopyMatrixAndVecAreDeep(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	dm := serial.FromRows([][]float64{{1, 2}, {3, 4}})
	a, _ := FromDense(g, dm, embed.Block, embed.Block)
	out, _ := NewMatrix(g, 2, 2, embed.Block, embed.Block)
	spmd(t, g, func(e *Env) {
		cp := e.CopyMatrix(a)
		e.MapMatrix(cp, func(i, j int, v float64) float64 { return v + 100 }, 1)
		e.StoreMatrix(out, cp)
	})
	matEqual(t, a.ToDense(), dm, 0, "original unchanged")
	want := dm.Clone()
	for i := range want.A {
		want.A[i] += 100
	}
	matEqual(t, out.ToDense(), want, 0, "copy modified")
}

func TestEnvValidatesGrid(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	m := hypercube.MustNew(3, costmodel.CM2()) // dim 3 != grid dim 2
	_, err := m.Run(func(p *hypercube.Proc) { NewEnv(p, g) })
	if err == nil {
		t.Fatal("mismatched grid accepted")
	}
}

// TestHostAccessorsRejectLocalHandles: the host accessors refuse an
// SPMD-local temporary inside the Run that made it, which holds one
// processor's piece, and after that Run, when it holds nothing; L
// refuses it then too, by name, instead of reading an empty container.
func TestHostAccessorsRejectLocalHandles(t *testing.T) {
	g, _ := embed.NewGrid(0, 0)
	var tempM *Matrix
	var tempV *Vector
	refused := func(want string, fs map[string]func()) (accepted []string) {
		for name, f := range fs {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
						accepted = append(accepted, fmt.Sprintf("%s (panic %q)", name, msg))
					}
				}()
				f()
			}()
		}
		return accepted
	}
	host := map[string]func(){
		"ToDense": func() { tempM.ToDense() },
		"ToSlice": func() { tempV.ToSlice() },
	}
	var inRun []string
	var replicasErr error
	spmd(t, g, func(e *Env) {
		tempM = e.TempMatrix(2, 2, embed.Block, embed.Block)
		tempV = e.TempVector(2, Linear, embed.Block, 0, false)
		tempM.L(e.P.ID())
		inRun = refused("SPMD-local", host)
		replicasErr = tempV.CheckReplicas()
	})
	if len(inRun) > 0 || replicasErr == nil {
		t.Fatalf("in its Run, a local handle accepted by host accessors %v, CheckReplicas error %v", inRun, replicasErr)
	}
	const lifetime = "end of the Run that made it"
	host["Matrix.L"] = func() { tempM.L(0) }
	host["Vector.L"] = func() { tempV.L(0) }
	if after := refused(lifetime, host); len(after) > 0 {
		t.Fatalf("after its Run, an expired local handle accepted without a lifetime error by %v", after)
	}
	if err := tempV.CheckReplicas(); err == nil || !strings.Contains(err.Error(), lifetime) {
		t.Fatalf("CheckReplicas of an expired vector = %v, want a lifetime error", err)
	}
}

func TestLayoutStrings(t *testing.T) {
	if Linear.String() != "linear" || RowAligned.String() != "row-aligned" || ColAligned.String() != "col-aligned" {
		t.Fatal("Layout strings")
	}
	if Layout(9).String() == "" {
		t.Fatal("unknown layout string")
	}
}

func TestOpStringsAndFolds(t *testing.T) {
	if OpSum.String() != "sum" || OpMax.String() != "max" || OpMin.String() != "min" {
		t.Fatal("Op strings")
	}
	if LocMax.String() != "maxloc" || LocMin.String() != "minloc" || LocMaxAbs.String() != "maxabsloc" {
		t.Fatal("LocOp strings")
	}
	if OpSum.fold(2, 3) != 5 || OpMax.fold(2, 3) != 3 || OpMin.fold(2, 3) != 2 {
		t.Fatal("folds")
	}
	if OpSum.identity() != 0 || !math.IsInf(OpMax.identity(), -1) || !math.IsInf(OpMin.identity(), 1) {
		t.Fatal("identities")
	}
	if LocMaxAbs.value(-3) != 3 || LocMax.value(-3) != -3 {
		t.Fatal("LocOp value transform")
	}
}
