package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tables memoizes each experiment's table across tests: every builder
// is deterministic, so the golden comparison and the shape tests can
// share one run of each.
var tables sync.Map // id → func() (*Table, error)

// table returns experiment id's table, building it at most once per
// test binary.
func table(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	run, _ := tables.LoadOrStore(e.ID, sync.OnceValues(e.Run))
	tb, err := run.(func() (*Table, error))()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tb
}

// goldenBlock renders a table in the format of testdata/tables.golden:
// one tab-separated line per field and per row.
func goldenBlock(tb *Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "id\t%s\ntitle\t%s\ncolumns\t%s\n", tb.ID, tb.Title, strings.Join(tb.Columns, "\t"))
	for _, row := range tb.Rows {
		fmt.Fprintf(&sb, "row\t%s\n", strings.Join(row, "\t"))
	}
	fmt.Fprintf(&sb, "notes\t%s\n", tb.Notes)
	return sb.String()
}

// TestTablesGolden pins every experiment's whole table — id, title,
// columns, every row and the notes — against testdata/tables.golden.
// Simulated times are deterministic, so any difference is a behavioral
// change of the harness or of the engine beneath it.
func TestTablesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, block := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(block, "id\t"), "\n")
		want[id] = block + "\n"
	}
	all := All()
	if len(want) != len(all) {
		t.Fatalf("golden file has %d tables, the registry %d", len(want), len(all))
	}
	for _, e := range all {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if got := goldenBlock(table(t, e.ID)); got != want[e.ID] {
				t.Errorf("table differs from testdata/tables.golden\ngot:\n%s\nwant:\n%s", got, want[e.ID])
			}
		})
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{
		ID:      "X0",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   "a note",
	}
	tb.AddRow(1, 2.5)
	tb.AddRow("wide-cell", 10000.4)
	s := tb.String()
	if !strings.Contains(s, "X0 — demo") || !strings.Contains(s, "wide-cell") {
		t.Fatalf("table output:\n%s", s)
	}
	if !strings.Contains(s, "10000") || !strings.Contains(s, "2.500") {
		t.Fatalf("float formatting:\n%s", s)
	}
	if !strings.Contains(s, "note: a note") {
		t.Fatalf("missing note:\n%s", s)
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "F1", "F2", "F3", "A1", "A2", "A3", "A4", "X1", "X2", "X3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := ByID(strings.ToLower(id)); !ok {
			t.Fatalf("ByID(%q) failed", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

// cell parses a table cell back to a float.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %v", tb.ID, row, col, err)
	}
	return v
}

func TestWorkloadGeneratorsDeterministic(t *testing.T) {
	a1, b1 := RandSystem(5, 10)
	a2, b2 := RandSystem(5, 10)
	for i := range a1.A {
		if a1.A[i] != a2.A[i] {
			t.Fatal("RandSystem not deterministic")
		}
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("RandSystem rhs not deterministic")
		}
	}
	c1, m1, r1 := RandLP(7, 4, 6)
	c2, m2, r2 := RandLP(7, 4, 6)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("RandLP c not deterministic")
		}
	}
	for i := range m1.A {
		if m1.A[i] != m2.A[i] {
			t.Fatal("RandLP A not deterministic")
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("RandLP b not deterministic")
		}
	}
	if RandMat(3, 4, 5).At(1, 2) != RandMat(3, 4, 5).At(1, 2) {
		t.Fatal("RandMat not deterministic")
	}
	if RandVec(3, 5)[2] != RandVec(3, 5)[2] {
		t.Fatal("RandVec not deterministic")
	}
}

func TestF1SpeedupShape(t *testing.T) {
	tb := table(t, "F1")
	if len(tb.Rows) != 9 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Speedup must start at 1, rise, and flatten: final speedup well
	// below ideal p but above the half-way point's.
	if s0 := cell(t, tb, 0, 3); s0 != 1 {
		t.Fatalf("speedup(1) = %v", s0)
	}
	s4 := cell(t, tb, 4, 3)
	s8 := cell(t, tb, 8, 3)
	if s4 <= 2 {
		t.Fatalf("speedup(16) = %v, want > 2", s4)
	}
	if s8 >= 64 {
		t.Fatalf("speedup(256) = %v: no flattening near p lg p = m", s8)
	}
}

func TestF2EfficiencyClimbs(t *testing.T) {
	tb := table(t, "F2")
	prev := -1.0
	for r := range tb.Rows {
		eff := cell(t, tb, r, 4)
		if eff <= prev {
			t.Fatalf("efficiency not monotone at row %d: %v after %v", r, eff, prev)
		}
		prev = eff
	}
	if prev < 0.5 {
		t.Fatalf("final efficiency %v, want > 0.5 (work-optimality regime)", prev)
	}
}

func TestE2ReduceNearOptimalAtLargeGrain(t *testing.T) {
	tb := table(t, "E2")
	// First row: p=4, m/p=65536 >> lg p: processor-time product within
	// a small constant of serial.
	if ratio := cell(t, tb, 0, 3); ratio > 1.5 {
		t.Fatalf("pT/T1 at large grain = %v, want < 1.5", ratio)
	}
	// Ratio must grow monotonically as grain shrinks.
	prev := 0.0
	for r := range tb.Rows {
		ratio := cell(t, tb, r, 3)
		if ratio < prev {
			t.Fatalf("pT/T1 not monotone at row %d", r)
		}
		prev = ratio
	}
}

func TestA1AllPortRatioIsD(t *testing.T) {
	tb := table(t, "A1")
	for r := range tb.Rows {
		if ratio := cell(t, tb, r, 3); ratio < 5.5 || ratio > 6.5 {
			t.Fatalf("row %d: all-port ratio %v, want ~6 (=d)", r, ratio)
		}
	}
}

func TestA2CrossoverExists(t *testing.T) {
	tb := table(t, "A2")
	winners := make(map[string]bool)
	for _, row := range tb.Rows {
		winners[row[4]] = true
	}
	if !winners["binomial"] || !winners["scatter/allgather"] {
		t.Fatalf("no crossover: winners = %v", winners)
	}
	// At the highest tau and smallest n the binomial tree must win; at
	// the lowest tau and largest n scatter/all-gather must win.
	if tb.Rows[3][4] != "scatter/allgather" {
		t.Fatalf("low tau, large n: winner %s", tb.Rows[3][4])
	}
	last := tb.Rows[len(tb.Rows)-4]
	if last[4] != "binomial" {
		t.Fatalf("high tau, small n: winner %s", last[4])
	}
}

func TestE1TimesGrowWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	tb := table(t, "E1")
	for col := 1; col <= 4; col++ {
		prev := 0.0
		for r := range tb.Rows {
			v := cell(t, tb, r, col)
			if v <= 0 || v < prev {
				t.Fatalf("column %d not increasing at row %d", col, r)
			}
			prev = v
		}
	}
}

func TestE3OrderOfMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	tb := table(t, "E3")
	for r := range tb.Rows {
		if ratio := cell(t, tb, r, 4); ratio < 5 {
			t.Fatalf("row %d: naive/fused = %v, want >= 5 (order-of-magnitude claim)", r, ratio)
		}
	}
}

func TestE4E5OrderOfMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	e4 := table(t, "E4")
	for r := range e4.Rows {
		ratio := cell(t, e4, r, 3)
		if ratio < 4 || ratio > 40 {
			t.Fatalf("E4 row %d: naive/prim = %v, want in the order-of-magnitude band", r, ratio)
		}
	}
	e5 := table(t, "E5")
	for r := range e5.Rows {
		ratio := cell(t, e5, r, 4)
		if ratio < 4 || ratio > 40 {
			t.Fatalf("E5 row %d: naive/prim = %v", r, ratio)
		}
	}
}

func TestA3CyclicWins(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	tb := table(t, "A3")
	prev := 0.0
	for r := range tb.Rows {
		ratio := cell(t, tb, r, 3)
		if ratio < 1 {
			t.Fatalf("row %d: block/cyclic = %v, cyclic should not lose", r, ratio)
		}
		if ratio < prev {
			t.Fatalf("row %d: cyclic advantage should grow with n", r)
		}
		prev = ratio
	}
}

func TestF3EmbeddingRunsAndGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	tb := table(t, "F3")
	for col := 1; col <= 4; col++ {
		prev := 0.0
		for r := range tb.Rows {
			v := cell(t, tb, r, col)
			if v <= prev {
				t.Fatalf("col %d not increasing at row %d", col, r)
			}
			prev = v
		}
	}
}

func TestX1MatMulShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	tb := table(t, "X1")
	prev := 0.0
	for r := range tb.Rows {
		v := cell(t, tb, r, 1)
		if v <= prev {
			t.Fatalf("matmul time not increasing at row %d", r)
		}
		prev = v
	}
	// Efficiency must improve with n (per-step start-ups amortize).
	if cell(t, tb, len(tb.Rows)-1, 4) <= cell(t, tb, 0, 4) {
		t.Fatal("matmul efficiency did not improve with n")
	}
}

func TestX2CGOvertakesGauss(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	tb := table(t, "X2")
	last := len(tb.Rows) - 1
	if ratio := cell(t, tb, last, 4); ratio <= 1 {
		t.Fatalf("gauss/cg = %v at the largest size, want > 1", ratio)
	}
	if cell(t, tb, last, 4) <= cell(t, tb, 0, 4) {
		t.Fatal("CG advantage should grow with n")
	}
}

func TestA4AllPortSpeedupGrows(t *testing.T) {
	tb := table(t, "A4")
	prev := 0.0
	for r := range tb.Rows {
		s := cell(t, tb, r, 3)
		if s < prev {
			t.Fatalf("speedup not monotone at row %d", r)
		}
		prev = s
	}
	if prev < 4 {
		t.Fatalf("final all-port speedup %v, want >= 4 (approaching d=8)", prev)
	}
}

func TestX3TridiagLogDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner in -short mode")
	}
	tb := table(t, "X3")
	// Simulated time must grow far slower than n (log depth): across
	// the 64x size range, time grows by well under 8x.
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, len(tb.Rows)-1, 1)
	if last/first > 8 {
		t.Fatalf("time grew %vx over a 64x size range: not log-depth", last/first)
	}
	// Speedup over the modelled serial Thomas must grow with n.
	if cell(t, tb, len(tb.Rows)-1, 3) <= cell(t, tb, 0, 3) {
		t.Fatal("speedup did not grow with n")
	}
}
