// Package bench is the experiment harness: one runner per table and
// figure of the reconstructed evaluation (E1–E5, F1–F3, A1–A4 and the
// extensions X1–X3 in DESIGN.md), each producing a formatted Table of
// simulated-time measurements. The top-level bench_test.go benchmarks
// and the cmd/vmprim CLI both call these runners, so `go test -bench`
// and `vmprim -exp E3` print the same rows. E1–E5 also exist as
// profiled workloads on a caller-supplied machine (RunSpec, spec.go),
// which is what vmprimd serves and benchmark/ drives; the Rand*
// generators in workload.go supply every experiment's seeded inputs.
package bench

import (
	"fmt"
	"io"
	"strings"
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

// Experiment pairs an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "four primitive timings vs problem size", E1Primitives},
		{"E2", "primitive timings and work-efficiency vs machine size", E2Scaling},
		{"E3", "vector-matrix multiply: naive vs primitives", E3Matvec},
		{"E4", "Gaussian elimination: naive vs primitives", E4Gauss},
		{"E5", "simplex: naive vs primitives, per-iteration", E5Simplex},
		{"F1", "matvec speedup vs machine size (strong scaling)", F1Speedup},
		{"F2", "Reduce work-efficiency vs grain m/p", F2Efficiency},
		{"F3", "embedding-change costs vs problem size", F3Embedding},
		{"A1", "ablation: one-port vs all-port communication", A1Ports},
		{"A2", "ablation: binomial vs scatter/all-gather broadcast", A2Broadcast},
		{"A3", "ablation: block vs cyclic embedding in elimination", A3Cyclic},
		{"A4", "ablation: all-port rotated-tree broadcast", A4AllPortBroadcast},
		{"X1", "extension: outer-product matrix multiply", X1MatMul},
		{"X2", "extension: elimination vs conjugate gradient", X2DirectVsIterative},
		{"X3", "extension: tridiagonal cyclic reduction log-depth", X3Tridiag},
	}
}

// ByID finds an experiment by its (case-insensitive) id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
