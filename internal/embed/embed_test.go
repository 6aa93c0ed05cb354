package embed

import (
	"testing"
	"testing/quick"

	"vmprim/internal/gray"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(-1, 2); err == nil {
		t.Fatal("negative dr accepted")
	}
	if _, err := NewGrid(2, -1); err == nil {
		t.Fatal("negative dc accepted")
	}
	if _, err := NewGrid(15, 15); err == nil {
		t.Fatal("oversized grid accepted")
	}
	g, err := NewGrid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.PRows() != 4 || g.PCols() != 8 || g.P() != 32 || g.D != 5 {
		t.Fatalf("grid = %+v", g)
	}
}

func TestGridMasksPartitionCube(t *testing.T) {
	for dr := 0; dr <= 4; dr++ {
		for dc := 0; dc <= 4; dc++ {
			g, err := NewGrid(dr, dc)
			if err != nil {
				t.Fatal(err)
			}
			if g.RowMask()&g.ColMask() != 0 {
				t.Fatalf("dr=%d dc=%d: masks overlap", dr, dc)
			}
			if g.RowMask()|g.ColMask() != (1<<g.D)-1 {
				t.Fatalf("dr=%d dc=%d: masks do not cover the cube", dr, dc)
			}
		}
	}
}

func TestProcAtRoundTrip(t *testing.T) {
	g, _ := NewGrid(3, 2)
	seen := make(map[int]bool)
	for gr := 0; gr < g.PRows(); gr++ {
		for gc := 0; gc < g.PCols(); gc++ {
			pid := g.ProcAt(gr, gc)
			if pid < 0 || pid >= g.P() {
				t.Fatalf("ProcAt(%d,%d) = %d out of range", gr, gc, pid)
			}
			if seen[pid] {
				t.Fatalf("ProcAt not injective at (%d,%d)", gr, gc)
			}
			seen[pid] = true
			if g.RowOf(pid) != gr || g.ColOf(pid) != gc {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", gr, gc, pid, g.RowOf(pid), g.ColOf(pid))
			}
		}
	}
}

func TestGridAdjacency(t *testing.T) {
	// Gray coding: neighboring grid coordinates are cube neighbors.
	g, _ := NewGrid(3, 3)
	for gr := 0; gr+1 < g.PRows(); gr++ {
		a, b := g.ProcAt(gr, 2), g.ProcAt(gr+1, 2)
		if gray.OnesCount(a^b) != 1 {
			t.Fatalf("grid rows %d,%d not cube neighbors", gr, gr+1)
		}
	}
	for gc := 0; gc+1 < g.PCols(); gc++ {
		a, b := g.ProcAt(1, gc), g.ProcAt(1, gc+1)
		if gray.OnesCount(a^b) != 1 {
			t.Fatalf("grid cols %d,%d not cube neighbors", gc, gc+1)
		}
	}
}

// TestField checks the three fields of every grid with D <= 6 at every
// address: Coord inverts Place, the row and column fields compose
// ProcAt and partition the address, and Rel is the compacted Place.
func TestField(t *testing.T) {
	for d := 0; d <= 6; d++ {
		for dr := 0; dr <= d; dr++ {
			g, err := NewGrid(dr, d-dr)
			if err != nil {
				t.Fatal(err)
			}
			rows, cols := g.Rows(), g.Cols()
			if rows.Mask()&cols.Mask() != 0 || rows.Mask()|cols.Mask() != g.Cube().Mask() || g.Cube().Mask() != g.P()-1 {
				t.Fatalf("dr=%d dc=%d: row and column masks do not partition the address", g.Dr, g.Dc)
			}
			if rows.Size() != g.PRows() || cols.Size() != g.PCols() || g.Cube().Size() != g.P() {
				t.Fatalf("dr=%d dc=%d: field sizes disagree with the grid", g.Dr, g.Dc)
			}
			for pid := 0; pid < g.P(); pid++ {
				r, c := rows.Coord(pid), cols.Coord(pid)
				if rows.Place(r)|cols.Place(c) != pid || g.ProcAt(r, c) != pid {
					t.Fatalf("dr=%d dc=%d: pid %d at (%d,%d) does not place back", g.Dr, g.Dc, pid, r, c)
				}
				for _, f := range []Field{rows, cols, g.Cube()} {
					x := f.Coord(pid)
					if x < 0 || x >= f.Size() {
						t.Fatalf("%+v: Coord(%d) = %d out of [0,%d)", f, pid, x, f.Size())
					}
					if f.Coord(f.Place(x)) != x {
						t.Fatalf("%+v: Coord does not invert Place at %d", f, x)
					}
					if pid&f.Mask() != f.Place(x) {
						t.Fatalf("%+v: Place(Coord(%d)) is not pid's field bits", f, pid)
					}
					if f.Rel(x) != gray.Compact(f.Place(x), f.Mask()) {
						t.Fatalf("%+v: Rel(%d) = %d, Compact gives %d", f, x, f.Rel(x), gray.Compact(f.Place(x), f.Mask()))
					}
				}
			}
		}
	}
}

func TestProcAtPanicsOutOfRange(t *testing.T) {
	g, _ := NewGrid(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g.ProcAt(2, 0)
}

func TestSplitForSquare(t *testing.T) {
	g := SplitFor(6, 512, 512)
	if g.Dr != 3 || g.Dc != 3 {
		t.Fatalf("square split = %+v, want 3+3", g)
	}
}

func TestSplitForWide(t *testing.T) {
	// 16 x 4096: all processors should go to the column axis.
	g := SplitFor(4, 16, 4096)
	if g.Dc <= g.Dr {
		t.Fatalf("wide split = %+v, want dc > dr", g)
	}
}

func TestSplitForAvoidsIdleProcs(t *testing.T) {
	// 2 rows on a 16-proc cube: at most 1 row bit is usable.
	g := SplitFor(4, 2, 1024)
	if g.Dr > 1 {
		t.Fatalf("split %+v idles row processors", g)
	}
}

func TestMap1DBlock(t *testing.T) {
	m, err := NewMap1D(10, 2, Block) // 10 over 4 coords: B=3
	if err != nil {
		t.Fatal(err)
	}
	if m.B != 3 || m.PaddedN() != 12 || m.Coords() != 4 {
		t.Fatalf("map = %+v", m)
	}
	wantCoord := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	wantLocal := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	for e := 0; e < 10; e++ {
		if m.CoordOf(e) != wantCoord[e] || m.LocalOf(e) != wantLocal[e] {
			t.Fatalf("e=%d: (%d,%d), want (%d,%d)", e, m.CoordOf(e), m.LocalOf(e), wantCoord[e], wantLocal[e])
		}
	}
	if m.GlobalOf(3, 1) != -1 || m.GlobalOf(3, 2) != -1 {
		t.Fatal("padding slots not detected")
	}
}

func TestMap1DCyclic(t *testing.T) {
	m, err := NewMap1D(10, 2, Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 10; e++ {
		if m.CoordOf(e) != e%4 || m.LocalOf(e) != e/4 {
			t.Fatalf("e=%d: (%d,%d)", e, m.CoordOf(e), m.LocalOf(e))
		}
	}
	// Padded: coords 2,3 at local 2 are indices 10, 11 -> padding.
	if m.GlobalOf(2, 2) != -1 || m.GlobalOf(3, 2) != -1 {
		t.Fatal("cyclic padding slots not detected")
	}
	if m.GlobalOf(1, 2) != 9 {
		t.Fatalf("GlobalOf(1,2) = %d, want 9", m.GlobalOf(1, 2))
	}
}

func TestMap1DRoundTripQuick(t *testing.T) {
	f := func(nRaw uint16, kRaw, kindRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		k := int(kRaw) % 6
		kind := Block
		if kindRaw%2 == 1 {
			kind = Cyclic
		}
		m, err := NewMap1D(n, k, kind)
		if err != nil {
			return false
		}
		for e := 0; e < n; e++ {
			if m.GlobalOf(m.CoordOf(e), m.LocalOf(e)) != e {
				return false
			}
		}
		// Every non-padding slot maps back consistently.
		count := 0
		for c := 0; c < m.Coords(); c++ {
			for l := 0; l < m.B; l++ {
				if g := m.GlobalOf(c, l); g >= 0 {
					count++
					if m.CoordOf(g) != c || m.LocalOf(g) != l {
						return false
					}
				}
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMap1DLoadBalance(t *testing.T) {
	// No coordinate may hold more than ceil(n/coords) real elements,
	// and blocks differ in size by at most... B (block) or 1 (cyclic).
	for _, kind := range []MapKind{Block, Cyclic} {
		m, _ := NewMap1D(1000, 4, kind)
		counts := make([]int, m.Coords())
		for e := 0; e < m.N; e++ {
			counts[m.CoordOf(e)]++
		}
		for c, cnt := range counts {
			if cnt > m.B {
				t.Fatalf("%v: coord %d holds %d > B=%d", kind, c, cnt, m.B)
			}
		}
		if kind == Cyclic {
			min, max := counts[0], counts[0]
			for _, c := range counts {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if max-min > 1 {
				t.Fatalf("cyclic imbalance %d", max-min)
			}
		}
	}
}

func TestMap1DZeroElements(t *testing.T) {
	m, err := NewMap1D(0, 3, Block)
	if err != nil {
		t.Fatal(err)
	}
	if m.B != 0 || m.PaddedN() != 0 {
		t.Fatalf("empty map = %+v", m)
	}
}

func TestMap1DValidation(t *testing.T) {
	if _, err := NewMap1D(-1, 2, Block); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := NewMap1D(5, -1, Block); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestMapKindString(t *testing.T) {
	if Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Fatal("MapKind strings")
	}
	if MapKind(9).String() == "" {
		t.Fatal("unknown MapKind string empty")
	}
}

func TestMapPanicsOnBadIndex(t *testing.T) {
	m, _ := NewMap1D(5, 1, Block)
	for _, f := range []func(){
		func() { m.CoordOf(5) },
		func() { m.CoordOf(-1) },
		func() { m.LocalOf(99) },
		func() { m.GlobalOf(2, 0) },
		func() { m.GlobalOf(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}
