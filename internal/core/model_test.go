package core

import (
	"math"
	"math/rand"
	"testing"

	"vmprim/internal/embed"
	"vmprim/internal/serial"
)

// Model-based testing: apply a random sequence of primitive operations
// to a distributed matrix and, in lockstep, the equivalent dense
// operations to a serial mirror; the two must agree after every
// sequence, on every grid and map kind. This catches interaction bugs
// (stale replicas, embedding drift, tag desynchronization) that
// single-operation tests cannot.

// modelOp is one randomly chosen operation applied to both worlds.
type modelOp struct {
	kind int
	i, j int
	v    float64
}

const nModelOps = 7

func randomOps(rng *rand.Rand, rows, cols, count int) []modelOp {
	ops := make([]modelOp, count)
	for k := range ops {
		ops[k] = modelOp{
			kind: rng.Intn(nModelOps),
			i:    rng.Intn(rows),
			j:    rng.Intn(cols),
			v:    rng.NormFloat64(),
		}
	}
	return ops
}

// applySerial mirrors the distributed semantics on a dense matrix.
func applySerial(dm *serial.Mat, op modelOp) {
	switch op.kind {
	case 0: // swap rows i and (j mod rows)
		i2 := op.j % dm.R
		r1, r2 := dm.Row(op.i), dm.Row(i2)
		dm.SetRow(op.i, r2)
		dm.SetRow(i2, r1)
	case 1: // copy row i over row (j mod rows)
		dm.SetRow(op.j%dm.R, dm.Row(op.i))
	case 2: // copy column j over column (i mod cols)
		dm.SetCol(op.i%dm.C, dm.Col(op.j))
	case 3: // set element
		dm.Set(op.i, op.j, op.v)
	case 4: // scale a row range
		for j := 0; j < dm.C; j++ {
			dm.Set(op.i, j, dm.At(op.i, j)*op.v)
		}
	case 5: // rank-1 update with row i and column j
		ci := dm.Col(op.j)
		rj := dm.Row(op.i)
		for a := 0; a < dm.R; a++ {
			for b := 0; b < dm.C; b++ {
				dm.Set(a, b, dm.At(a, b)+op.v*ci[a]*rj[b])
			}
		}
	case 6: // transpose-in-place semantics need square; emulate via
		// global add of the max element instead (exercises ReduceAll).
		mx := math.Inf(-1)
		for _, x := range dm.A {
			mx = math.Max(mx, x)
		}
		for idx := range dm.A {
			dm.A[idx] += mx * 0.01
		}
	}
}

// applyDistributed performs the same operation with the primitives.
func applyDistributed(e *Env, a *Matrix, op modelOp) {
	switch op.kind {
	case 0:
		e.SwapRows(a, op.i, op.j%a.Rows)
	case 1:
		r := e.ExtractRow(a, op.i, false)
		e.InsertRow(a, r, op.j%a.Rows)
	case 2:
		c := e.ExtractCol(a, op.j, false)
		e.InsertCol(a, c, op.i%a.Cols)
	case 3:
		e.SetElem(a, op.i, op.j, op.v)
	case 4:
		e.MapRange(a, op.i, op.i+1, 0, a.Cols, func(_, _ int, x float64) float64 {
			return x * op.v
		}, 1)
	case 5:
		ci := e.ExtractCol(a, op.j, true)
		rj := e.ExtractRow(a, op.i, true)
		e.UpdateOuter(a, ci, rj, 0, a.Rows, 0, a.Cols,
			func(x, c, r float64) float64 { return x + op.v*c*r }, 3)
	case 6:
		mx := e.ReduceAll(a, OpMax)
		e.MapMatrix(a, func(_, _ int, x float64) float64 { return x + mx*0.01 }, 2)
	}
}

func TestRandomOpSequencesMatchSerialModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, g := range testGrids(t) {
		for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
			for trial := 0; trial < 4; trial++ {
				rows := 3 + rng.Intn(8)
				cols := 3 + rng.Intn(8)
				dm := randDense(rng, rows, cols)
				mirror := dm.Clone()
				a, err := FromDense(g, dm, kind, kind)
				if err != nil {
					t.Fatal(err)
				}
				ops := randomOps(rng, rows, cols, 12)
				spmd(t, g, func(e *Env) {
					for _, op := range ops {
						step := e.Mark()
						applyDistributed(e, a, op)
						e.Release(step)
					}
				})
				for _, op := range ops {
					applySerial(mirror, op)
				}
				got := a.ToDense()
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						if math.Abs(got.At(i, j)-mirror.At(i, j)) > 1e-9 {
							t.Fatalf("grid %+v %v trial %d ops %v: (%d,%d) = %v, want %v",
								g, kind, trial, ops, i, j, got.At(i, j), mirror.At(i, j))
						}
					}
				}
			}
		}
	}
}

// The same idea for vectors: random realign chains must preserve
// contents regardless of the path taken through the three embeddings.
func TestRandomRealignChains(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, g := range testGrids(t) {
		n := 4 + rng.Intn(12)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		type step struct {
			layout Layout
			kind   embed.MapKind
			home   int
			repl   bool
		}
		for trial := 0; trial < 5; trial++ {
			steps := make([]step, 4)
			for s := range steps {
				layout := Layout(rng.Intn(3))
				kind := embed.MapKind(rng.Intn(2))
				repl := rng.Intn(2) == 1 && layout != Linear
				home := 0
				if layout == RowAligned {
					home = rng.Intn(g.PRows())
				} else if layout == ColAligned {
					home = rng.Intn(g.PCols())
				}
				steps[s] = step{layout, kind, home, repl}
			}
			last := steps[len(steps)-1]
			v, err := VectorFromSlice(g, x, Linear, embed.Block, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			out, err := NewVector(g, n, last.layout, last.kind, last.home, last.repl)
			if err != nil {
				t.Fatal(err)
			}
			spmd(t, g, func(e *Env) {
				cur := v
				for _, s := range steps {
					cur = e.Realign(cur, s.layout, s.kind, s.home, s.repl)
				}
				e.StoreVec(out, cur)
			})
			vecEqual(t, out.ToSlice(), x, 0, "realign chain")
			if err := out.CheckReplicas(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
