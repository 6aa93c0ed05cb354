package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// stagingMachines returns a machine per grid dimension of testGrids,
// closed at the end of the test.
func stagingMachines(t *testing.T) func(embed.Grid) *hypercube.Machine {
	ms := map[int]*hypercube.Machine{}
	t.Cleanup(func() {
		for _, m := range ms {
			m.Close()
		}
	})
	return func(g embed.Grid) *hypercube.Machine {
		if ms[g.D] == nil {
			ms[g.D] = hypercube.MustNew(g.D, costmodel.CM2())
		}
		return ms[g.D]
	}
}

// TestLoadDenseMatchesFromDense: the block LoadDense stages on each
// processor is, word for word and padding included, the block
// FromDense deals it, on every test grid, under every pair of maps,
// for shapes that divide the grid, leave padding, or are smaller than
// it (processors holding padding alone); and staging charges no
// simulated time.
func TestLoadDenseMatchesFromDense(t *testing.T) {
	machine := stagingMachines(t)
	rng := rand.New(rand.NewSource(55))
	kinds := []embed.MapKind{embed.Block, embed.Cyclic}
	for _, g := range testGrids(t) {
		m := machine(g)
		for _, shape := range [][2]int{{8, 8}, {7, 5}, {3, 2}, {1, 9}, {13, 1}, {0, 4}} {
			for _, rk := range kinds {
				for _, ck := range kinds {
					name := fmt.Sprintf("grid %dx%d %dx%d %v/%v", g.PRows(), g.PCols(), shape[0], shape[1], rk, ck)
					dm := randDense(rng, shape[0], shape[1])
					ref, err := FromDense(g, dm, rk, ck)
					if err != nil {
						t.Fatal(err)
					}
					bad := -1
					elapsed, err := m.Run(func(p *hypercube.Proc) {
						e := NewEnv(p, g)
						a := e.LoadDense(dm, rk, ck)
						if !a.SameShape(ref) || !slices.Equal(a.L(p.ID()), ref.L(p.ID())) {
							bad = p.ID()
						}
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if bad >= 0 {
						t.Fatalf("%s: proc %d staged a block other than FromDense's", name, bad)
					}
					if elapsed != 0 {
						t.Fatalf("%s: staging took %v of simulated time, want none", name, elapsed)
					}
				}
			}
		}
	}
}

// TestStoreDenseMatchesToDense: StoreDense lands a staged matrix, and
// a host container, in the dense matrix ToDense assembles, on every
// test grid, under every pair of maps, for the shapes of
// TestLoadDenseMatchesFromDense. Every processor fills its block's
// padding with NaN first, so a store that wrote padding anywhere
// shows; and storing charges no simulated time. A dense matrix of
// another shape, even one with as many elements, is refused.
func TestStoreDenseMatchesToDense(t *testing.T) {
	machine := stagingMachines(t)
	rng := rand.New(rand.NewSource(57))
	kinds := []embed.MapKind{embed.Block, embed.Cyclic}
	for _, g := range testGrids(t) {
		m := machine(g)
		for _, shape := range [][2]int{{8, 8}, {7, 5}, {3, 2}, {1, 9}, {13, 1}, {0, 4}} {
			for _, rk := range kinds {
				for _, ck := range kinds {
					name := fmt.Sprintf("grid %dx%d %dx%d %v/%v", g.PRows(), g.PCols(), shape[0], shape[1], rk, ck)
					dm := randDense(rng, shape[0], shape[1])
					ref, err := FromDense(g, dm, rk, ck)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.ToDense()
					staged, hosted := serial.NewMat(dm.R, dm.C), serial.NewMat(dm.R, dm.C)
					elapsed, err := m.Run(func(p *hypercube.Proc) {
						e := NewEnv(p, g)
						a := e.LoadDense(dm, rk, ck)
						for _, blk := range [][]float64{a.L(p.ID()), ref.L(p.ID())} {
							for l := range blk {
								lr, lc := l/a.CMap.B, l%a.CMap.B
								if a.RMap.GlobalOf(e.GridRow(), lr) < 0 || a.CMap.GlobalOf(e.GridCol(), lc) < 0 {
									blk[l] = math.NaN()
								}
							}
						}
						e.StoreDense(staged, a)
						e.StoreDense(hosted, ref)
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(staged.A, want.A) || !slices.Equal(hosted.A, want.A) {
						t.Fatalf("%s: StoreDense gave %v from the staged matrix and %v from the host one, ToDense %v",
							name, staged.A, hosted.A, want.A)
					}
					if elapsed != 0 {
						t.Fatalf("%s: storing took %v of simulated time, want none", name, elapsed)
					}
				}
			}
		}
	}
	g, _ := embed.NewGrid(1, 1)
	msg := ""
	spmd(t, g, func(e *Env) {
		defer func() {
			if r := recover(); r != nil && e.P.ID() == 0 {
				msg = fmt.Sprint(r)
			}
		}()
		e.StoreDense(serial.NewMat(4, 5), e.TempMatrix(5, 4, embed.Block, embed.Block))
	})
	if want := "core: StoreDense shape mismatch"; msg != want {
		t.Fatalf("StoreDense panicked with %q, want %q", msg, want)
	}
}

// TestLoadSliceStoreSliceMatchHostIO: LoadSlice stages on every
// processor the piece VectorFromSlice deals it (zero where it holds
// none), and StoreSlice lands a staged vector, or a host container, in
// the slice ToSlice reads, for every layout, map, home and
// replication, lengths that divide the deal, leave padding or are
// shorter than it. Every copy of a replicated vector but the first is
// poisoned before StoreSlice, which must read the first, as ToSlice
// does. Neither charges simulated time.
func TestLoadSliceStoreSliceMatchHostIO(t *testing.T) {
	machine := stagingMachines(t)
	rng := rand.New(rand.NewSource(56))
	for _, g := range testGrids(t) {
		m := machine(g)
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			_, hf := layout.fields(g)
			for _, n := range []int{0, 1, 3, 7, 16, 23} {
				for _, kind := range []embed.MapKind{embed.Block, embed.Cyclic} {
					for _, repl := range []bool{false, true} {
						homes := hf.Size()
						if repl {
							homes = 1 // every home holds a copy
						}
						for home := 0; home < homes; home++ {
							name := fmt.Sprintf("grid %dx%d %v n=%d %v home=%d repl=%v", g.PRows(), g.PCols(), layout, n, kind, home, repl)
							x := make([]float64, n)
							for i := range x {
								x[i] = rng.NormFloat64()
							}
							ref, err := VectorFromSlice(g, x, layout, kind, home, repl)
							if err != nil {
								t.Fatal(err)
							}
							want := ref.ToSlice()
							staged, hosted := make([]float64, n), make([]float64, n)
							bad := -1
							elapsed, err := m.Run(func(p *hypercube.Proc) {
								e := NewEnv(p, g)
								pid := p.ID()
								v := e.LoadSlice(x, layout, kind, home, repl)
								if !v.SameShape(ref) || v.Replicated != ref.Replicated || v.Home != ref.Home ||
									!slices.Equal(v.L(pid), ref.L(pid)) {
									bad = pid
								}
								e.StoreSlice(hosted, ref)
								if pid != v.holder(v.PieceCoord(pid), 0) {
									for i := range v.L(pid) {
										v.L(pid)[i] = math.NaN()
									}
								}
								e.StoreSlice(staged, v)
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if bad >= 0 {
								t.Fatalf("%s: proc %d staged a piece other than VectorFromSlice's", name, bad)
							}
							if !slices.Equal(staged, want) || !slices.Equal(hosted, want) {
								t.Fatalf("%s: StoreSlice gave %v from the staged vector and %v from the host one, ToSlice %v",
									name, staged, hosted, want)
							}
							if elapsed != 0 {
								t.Fatalf("%s: staging took %v of simulated time, want none", name, elapsed)
							}
						}
					}
				}
			}
		}
	}
}

// TestStoreSliceRejectsWrongLength: StoreSlice panics unless the slice
// has the vector's length.
func TestStoreSliceRejectsWrongLength(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	msg := ""
	spmd(t, g, func(e *Env) {
		defer func() {
			if r := recover(); r != nil && e.P.ID() == 0 {
				msg = fmt.Sprint(r)
			}
		}()
		e.StoreSlice(make([]float64, 4), e.TempVector(5, Linear, embed.Block, 0, false))
	})
	if want := "core: StoreSlice length mismatch"; msg != want {
		t.Fatalf("StoreSlice panicked with %q, want %q", msg, want)
	}
}
