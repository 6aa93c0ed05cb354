package main

import (
	"fmt"
	"io"
	"math"
)

// runKey groups the runs of a result file.
type runKey struct {
	workload string
	trace    int
}

// grouped collects, per workload and mode, every run's value of every
// metric, and the op counts and exact counts of the runs.
type grouped struct {
	values map[runKey]map[string][]float64
	ops    map[runKey][]int
	exact  map[runKey][]map[string]float64
	failed map[runKey]int
}

func group(f *resultFile) grouped {
	g := grouped{
		values: map[runKey]map[string][]float64{},
		ops:    map[runKey][]int{},
		exact:  map[runKey][]map[string]float64{},
		failed: map[runKey]int{},
	}
	for _, r := range f.Runs {
		k := runKey{r.Workload, r.Trace}
		if g.values[k] == nil {
			g.values[k] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			g.values[k][name] = append(g.values[k][name], v.Value)
		}
		if r.Trace == 0 {
			for _, m := range alsoCompared {
				if v, ok := r.Info[m.name]; ok {
					g.values[k][m.name] = append(g.values[k][m.name], v)
				}
			}
		}
		g.ops[k] = append(g.ops[k], r.Attempted)
		g.exact[k] = append(g.exact[k], r.Exact)
		g.failed[k] += r.Failed
	}
	return g
}

// verdict judges one end-to-end metric of B against baseline A. B may
// be worse than A by the metric's wanted share of A's median, or by its
// absolute floor where that is more.
//
//	ok          B's median is no worse than A's by more than that
//	worse       it is
//	unresolved  the run-to-run spread (interquartile distance) of either
//	            side is wider than that, so the medians cannot tell; unless
//	            every run of B reads better than every run of A (ok) or
//	            worse (worse)
func verdict(m metricDef, a, b []float64) string {
	medA, medB := median(a), median(b)
	sign := 1.0 // lower is better: growing is worse
	if m.better == "higher" {
		sign = -1
	}
	allowed := math.Max(m.want*math.Abs(medA), m.floor)
	if iqr(a) > allowed || iqr(b) > allowed {
		sa, sb := sortedCopy(a), sortedCopy(b)
		minA, maxA := sa[0], sa[len(sa)-1]
		minB, maxB := sb[0], sb[len(sb)-1]
		switch {
		case sign*(maxB-minA) < 0:
			return "ok"
		case sign*(minB-maxA) > 0:
			return "worse"
		}
		return "unresolved"
	}
	if sign*(medB-medA) > allowed {
		return "worse"
	}
	return "ok"
}

// compareFiles prints, per workload and metric, the two medians, the
// ratio B/A, the bound and the verdict. It returns 1 when any
// end-to-end metric is worse, the two sides ran different op counts, any
// exact count differs or any op failed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sides [2]grouped
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		sides[i] = group(f)
	}
	return compareResults(sides[0], sides[1], pathA, pathB, stdout)
}

func compareResults(a, b grouped, nameA, nameB string, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "A = %s (base of every ratio)\nB = %s\n", nameA, nameB)
	compared := append(append([]metricDef(nil), endToEnd...), alsoCompared...)
	for _, def := range workloads {
		for trace, table := range [][]metricDef{compared, perLayer} {
			k := runKey{def.name, trace}
			va, vb := a.values[k], b.values[k]
			if va == nil || vb == nil {
				continue
			}
			fmt.Fprintf(w, "\n%s, trace %d  (A: %d runs, B: %d runs)\n", def.name, trace, len(a.exact[k]), len(b.exact[k]))
			fmt.Fprintf(w, "  %-34s %14s %14s %9s %7s  %s\n", "metric", "A median", "B median", "B/A", "bound", "verdict")
			for _, m := range table {
				xa, xb := va[m.name], vb[m.name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				bound, v := "-", "-"
				if m.want > 0 {
					v = verdict(m, xa, xb)
					bound = fmt.Sprintf("%.0f%%", m.want*100)
					if v == "worse" {
						status = 1
					}
				}
				fmt.Fprintf(w, "  %-34s %14.6g %14.6g %9.4f %7s  %s\n",
					m.name, median(xa), median(xb), ratio(median(xb), median(xa)), bound, v)
			}
			// Fixed work is what makes counts and live heap comparable.
			if d := opsDiff(a.ops[k], b.ops[k]); d != "" {
				fmt.Fprintf(w, "  op counts DIFFER: %s\n", d)
				status = 1
			}
			if d := exactDiff(a.exact[k], b.exact[k]); d != "" {
				fmt.Fprintf(w, "  exact counts DIFFER: %s\n", d)
				status = 1
			} else {
				fmt.Fprintln(w, "  exact counts agree")
			}
			if n := a.failed[k] + b.failed[k]; n > 0 {
				fmt.Fprintf(w, "  %d ops FAILED\n", n)
				status = 1
			}
		}
	}
	return status
}

// opsDiff holds every run of both sides to the first run's op count.
func opsDiff(a, b []int) string {
	for _, n := range append(append([]int(nil), a...), b...) {
		if n != a[0] {
			return fmt.Sprintf("one run attempted %d ops and another %d; compare runs of the same -seconds", a[0], n)
		}
	}
	return ""
}

// exactDiff holds every run of both sides to the first run's exact
// counts: simulated time, messages and words do not depend on the host.
func exactDiff(a, b []map[string]float64) string {
	want := a[0]
	for _, runs := range [][]map[string]float64{a, b} {
		for _, got := range runs {
			for name, v := range want {
				if got[name] != v {
					return fmt.Sprintf("%s is %v in one run and %v in another", name, v, got[name])
				}
			}
		}
	}
	return ""
}
