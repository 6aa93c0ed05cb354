package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// FuzzExtractInto checks an extraction into a reused slot
// differentially: an ExtractRow/ExtractCol made after a step scope's
// Release takes the released extraction's header and scratch words,
// and must equal a fresh extraction made beside it on every processor
// — Home, Replicated and piece, a non-holder's piece zero — and, on the
// holders, the serial row or column.
//
// Inputs: cube dimension d in [0,6] split dr x (d-dr), a rows x cols
// matrix of 1..72 each (so n < p and non-powers of two occur), block or
// cyclic maps per axis, row or column extraction, the released and the
// checked index with their replicate flags, and whether the released
// extraction's words are scribbled over with NaN before its Release.
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
	f.Fuzz(func(t *testing.T, d, dr, rows, cols uint8, rcyc, ccyc, col bool, prev, idx uint8, prevRep, rep, scribble bool, seed int64) {
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
		extract, line, across := (*Env).ExtractRow, dm.Row, a.RMap
		if col {
			extract, line, across = (*Env).ExtractCol, dm.Col, a.CMap
		}
		i0, i := int(prev)%across.N, int(idx)%across.N
		want, home := line(i), across.CoordOf(i)

		m := hypercube.MustNew(dim, costmodel.CM2())
		defer m.Close()
		bad := make([]string, m.P())
		if _, err := m.Run(func(p *hypercube.Proc) {
			e := NewEnv(p, g)
			pid := p.ID()
			step := e.Mark()
			released := extract(e, a, i0, prevRep)
			if scribble {
				for k := range released.L(pid) {
					released.L(pid)[k] = math.NaN()
				}
			}
			e.Release(step)
			got := extract(e, a, i, rep)
			ref := extract(e, a, i, rep)
			if got != released {
				bad[pid] = "the extraction after the Release took another slot"
				return
			}
			bad[pid] = diffExtracted(got, ref, pid, home, rep, want)
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
			t.Fatalf("d=%d grid %dx%d, %dx%d %v/%v, col=%v: extract %d (rep %v, scribbled %v), release, extract %d (rep %v):\n%s",
				dim, g.PRows(), g.PCols(), dm.R, dm.C, kind(rcyc), kind(ccyc), col, i0, prevRep, scribble, i, rep,
				strings.Join(msgs, "\n"))
		}
	})
}

// diffExtracted describes how processor pid's view of got differs from
// a fresh extraction ref of the serial line want, homed on home with
// replication rep. It returns "" when they agree.
func diffExtracted(got, ref *Vector, pid, home int, rep bool, want []float64) string {
	if got.Home != home || got.Replicated != rep || ref.Home != home || ref.Replicated != rep {
		return fmt.Sprintf("home/replicated %d/%v, fresh %d/%v, want %d/%v",
			got.Home, got.Replicated, ref.Home, ref.Replicated, home, rep)
	}
	piece, fresh := got.L(pid), ref.L(pid)
	if !slices.Equal(piece, fresh) {
		return fmt.Sprintf("piece %v, fresh %v", piece, fresh)
	}
	if !got.HoldsData(pid) {
		if slices.ContainsFunc(piece, func(x float64) bool { return x != 0 }) {
			return fmt.Sprintf("non-holder piece %v, want zeros", piece)
		}
		return ""
	}
	c := got.PieceCoord(pid)
	for l := range got.Map.ValidCount(c) {
		if g := got.Map.GlobalOf(c, l); piece[l] != want[g] {
			return fmt.Sprintf("element %d = %v, serial %v", g, piece[l], want[g])
		}
	}
	return ""
}
