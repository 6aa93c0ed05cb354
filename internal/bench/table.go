// Package bench is the experiment harness: one registry (All) of the
// tables and figures of the reconstructed evaluation (E1–E5, F1–F3,
// A1–A4 and the extensions X1–X3 in DESIGN.md), each producing a
// formatted Table of simulated-time measurements. The top-level
// BenchmarkExperiment and the cmd/vmprim CLI both iterate it, so
// `go test -bench Experiment/E3` and `vmprim -exp E3` print the same
// rows. E1–E5 also carry a profiled workload, run through RunSpec
// (spec.go), which is what vmprimd serves and benchmark/ drives; the
// Rand* generators in workload.go supply every experiment's seeded
// inputs.
package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"vmprim/internal/hypercube"
)

// Table is one experiment's output: a titled grid of formatted cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes describes the expected shape from the paper and how to
	// read the table.
	Notes string
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	printRow(rule)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// Experiment is one entry of the registry: an id, a title and the
// table builder. E1–E5 also carry their profiled workload, which
// RunSpec runs: its default cube dimension and problem size, and its
// body on a caller's machine.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)

	d, n    int
	profile func(*hypercube.Machine, RunSpec, ProfileOpts) (*ProfileResult, error)
}

// experiments is the one registry, in DESIGN.md order. All, ByID and
// RunSpec all read it.
var experiments = []Experiment{
	{ID: "E1", Title: "four primitive timings vs problem size", Run: E1Primitives, d: 10, n: 512, profile: profileE1},
	{ID: "E2", Title: "primitive timings and work-efficiency vs machine size", Run: E2Scaling, d: 8, n: 512, profile: profileE2},
	{ID: "E3", Title: "vector-matrix multiply: naive vs primitives", Run: E3Matvec, d: 10, n: 512, profile: profileE3},
	{ID: "E4", Title: "Gaussian elimination: naive vs primitives", Run: E4Gauss, d: 8, n: 128, profile: profileE4},
	{ID: "E5", Title: "simplex: naive vs primitives, per-iteration", Run: E5Simplex, d: 8, n: 32, profile: profileE5},
	{ID: "F1", Title: "matvec speedup vs machine size (strong scaling)", Run: F1Speedup},
	{ID: "F2", Title: "Reduce work-efficiency vs grain m/p", Run: F2Efficiency},
	{ID: "F3", Title: "embedding-change costs vs problem size", Run: F3Embedding},
	{ID: "A1", Title: "ablation: one-port vs all-port communication", Run: A1Ports},
	{ID: "A2", Title: "ablation: binomial vs scatter/all-gather broadcast", Run: A2Broadcast},
	{ID: "A3", Title: "ablation: block vs cyclic embedding in elimination", Run: A3Cyclic},
	{ID: "A4", Title: "ablation: all-port rotated-tree broadcast", Run: A4AllPortBroadcast},
	{ID: "X1", Title: "extension: outer-product matrix multiply", Run: X1MatMul},
	{ID: "X2", Title: "extension: elimination vs conjugate gradient", Run: X2DirectVsIterative},
	{ID: "X3", Title: "extension: tridiagonal cyclic reduction log-depth", Run: X3Tridiag},
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return slices.Clone(experiments)
}

// ByID finds an experiment by its (case-insensitive) id.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
