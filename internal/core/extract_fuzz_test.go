package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// FuzzExtractInto checks ExtractRowInto/ExtractColInto differentially:
// into a vector already filled by a different extraction, the holders'
// pieces must equal the serial row or column, and every processor's
// piece, Home and Replicated must equal those of a fresh
// ExtractRow/ExtractCol — a non-holder's piece zeroed if it had storage,
// unmaterialized if it had none.
//
// Inputs: cube dimension d in [0,6] split dr x (d-dr), a rows x cols
// matrix of 1..72 each (so n < p and non-powers of two occur), block or
// cyclic maps per axis, row or column extraction, the earlier and the
// checked index with their replicate flags, and a host-created or
// SPMD-local destination.
func FuzzExtractInto(f *testing.F) {
	// The E1-E5 shapes, cut down to d <= 6: E1/E2 extract a row of an
	// n x n block matrix, E3 is the n x n matvec, E4 the cyclic n x n+1
	// augmented system (pivot row and multiplier column), E5 the cyclic
	// (m+1) x (n+m+1) simplex tableau.
	f.Add(uint8(6), uint8(3), uint8(64), uint8(64), false, false, false, uint8(31), uint8(32), true, true, false, int64(100))
	f.Add(uint8(6), uint8(3), uint8(64), uint8(64), false, false, false, uint8(0), uint8(63), false, true, true, int64(300))
	f.Add(uint8(6), uint8(3), uint8(64), uint8(64), false, false, true, uint8(5), uint8(17), true, false, false, int64(500))
	f.Add(uint8(6), uint8(3), uint8(32), uint8(33), true, true, true, uint8(3), uint8(4), true, true, false, int64(4))
	f.Add(uint8(6), uint8(3), uint8(32), uint8(33), true, true, false, uint8(3), uint8(4), true, false, false, int64(4))
	f.Add(uint8(6), uint8(3), uint8(9), uint8(21), true, true, true, uint8(20), uint8(2), true, true, true, int64(5))
	f.Add(uint8(6), uint8(3), uint8(9), uint8(21), true, true, false, uint8(1), uint8(8), false, true, false, int64(5))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), false, true, false, uint8(0), uint8(0), true, false, false, int64(1))
	f.Add(uint8(5), uint8(1), uint8(3), uint8(7), true, false, true, uint8(6), uint8(2), false, false, true, int64(7))
	f.Fuzz(func(t *testing.T, d, dr, rows, cols uint8, rcyc, ccyc, col bool, prev, idx uint8, prevRep, rep, hostDst bool, seed int64) {
		dim := int(d % 7)
		g, err := embed.NewGrid(int(dr)%(dim+1), dim-int(dr)%(dim+1))
		if err != nil {
			t.Fatal(err)
		}
		kind := func(cyclic bool) embed.MapKind {
			if cyclic {
				return embed.Cyclic
			}
			return embed.Block
		}
		dm := randDense(rand.New(rand.NewSource(seed)), 1+int(rows)%72, 1+int(cols)%72)
		a, err := FromDense(g, dm, kind(rcyc), kind(ccyc))
		if err != nil {
			t.Fatal(err)
		}
		// A column extraction is a row extraction of the other axis.
		n, layout, vmap, across := dm.C, RowAligned, a.CMap, a.RMap
		into, fresh, line := (*Env).ExtractRowInto, (*Env).ExtractRow, dm.Row
		if col {
			n, layout, vmap, across = dm.R, ColAligned, a.RMap, a.CMap
			into, fresh, line = (*Env).ExtractColInto, (*Env).ExtractCol, dm.Col
		}
		i0, i := int(prev)%across.N, int(idx)%across.N
		want, home := line(i), across.CoordOf(i)

		var host *Vector
		if hostDst {
			host = MustNewVector(g, n, layout, vmap.Kind, 0, false)
		}
		m := hypercube.MustNew(dim, costmodel.CM2())
		defer m.Close()
		bad := make([]string, m.P())
		if _, err := m.Run(func(p *hypercube.Proc) {
			e := NewEnv(p, g)
			pid := p.ID()
			dst := host
			if dst == nil {
				dst = e.TempVector(n, layout, vmap.Kind, 0, false)
			}
			into(e, dst, a, i0, prevRep)
			had := dst.stored(pid) != nil
			into(e, dst, a, i, rep)
			ref := fresh(e, a, i, rep)
			bad[pid] = diffExtracted(dst, ref, pid, home, rep, had, want)
		}); err != nil {
			t.Fatal(err)
		}
		var msgs []string
		for pid, msg := range bad {
			if msg != "" {
				msgs = append(msgs, fmt.Sprintf("proc %d: %s", pid, msg))
			}
		}
		if len(msgs) > 0 {
			t.Fatalf("d=%d grid %dx%d, %dx%d %v/%v, col=%v: extract %d (rep %v) then %d (rep %v) into host=%v:\n%s",
				dim, g.PRows(), g.PCols(), dm.R, dm.C, kind(rcyc), kind(ccyc), col, i0, prevRep, i, rep, hostDst,
				strings.Join(msgs, "\n"))
		}
	})
}

// diffExtracted describes how processor pid's view of dst differs from
// a fresh extraction ref of the serial line want, homed on home with
// replication rep; had reports whether dst's piece had storage before
// the extraction. It returns "" when they agree.
func diffExtracted(dst, ref *Vector, pid, home int, rep, had bool, want []float64) string {
	if dst.Home != home || dst.Replicated != rep || ref.Home != home || ref.Replicated != rep {
		return fmt.Sprintf("home/replicated %d/%v, fresh %d/%v, want %d/%v",
			dst.Home, dst.Replicated, ref.Home, ref.Replicated, home, rep)
	}
	got, fresh := dst.stored(pid), ref.stored(pid)
	if !dst.HoldsData(pid) {
		switch {
		case fresh != nil:
			return "a fresh extraction materialized a non-holder piece"
		case got != nil && !had:
			return "materialized a non-holder piece"
		case slices.ContainsFunc(got, func(x float64) bool { return x != 0 }):
			return fmt.Sprintf("stale non-holder piece %v", got)
		}
		return ""
	}
	if got == nil || !slices.Equal(got, fresh) {
		return fmt.Sprintf("piece %v, fresh %v", got, fresh)
	}
	c := dst.PieceCoord(pid)
	for l := range dst.Map.ValidCount(c) {
		if g := dst.Map.GlobalOf(c, l); got[l] != want[g] {
			return fmt.Sprintf("element %d = %v, serial %v", g, got[l], want[g])
		}
	}
	return ""
}

func TestExtractIntoRejectsIncompatible(t *testing.T) {
	g, err := embed.NewGrid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := MustNewMatrix(g, 5, 7, embed.Block, embed.Cyclic)
	for _, c := range []struct {
		name string
		dst  *Vector
		row  bool
	}{
		{"row into col-aligned", MustNewVector(g, 7, ColAligned, embed.Cyclic, 0, true), true},
		{"row of wrong length", MustNewVector(g, 5, RowAligned, embed.Cyclic, 0, true), true},
		{"row with wrong map", MustNewVector(g, 7, RowAligned, embed.Block, 0, true), true},
		{"col into row-aligned", MustNewVector(g, 5, RowAligned, embed.Block, 0, true), false},
		{"col with wrong map", MustNewVector(g, 5, ColAligned, embed.Cyclic, 0, true), false},
	} {
		m := hypercube.MustNew(g.D, costmodel.CM2())
		_, err := m.Run(func(p *hypercube.Proc) {
			e := NewEnv(p, g)
			if c.row {
				e.ExtractRowInto(c.dst, a, 0, true)
			} else {
				e.ExtractColInto(c.dst, a, 0, true)
			}
		})
		m.Close()
		if err == nil || !strings.Contains(err.Error(), "incompatible") {
			t.Errorf("%s: err %v, want an incompatible-vector panic", c.name, err)
		}
	}
}
