package collective

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
)

// The traffic golden pins the simulated cost of the collectives that
// carry segments, pieces or halves — Gather, Scatter, BcastLarge,
// ReduceScatter, AllReduce and the all-port pair — over every mask of
// the cubes up to d = 3 and three masks of the 4-cube, every root, and
// 0, 1 and 3 words per member, under both port models at non-integer
// costs. A case renders the elapsed time, every clock, LastStats,
// Congestion(0) and every member's result; testdata/traffic.golden
// holds one hash of that rendering per case, since the plain text runs
// to megabytes.

// trafficCase is one collective call on every processor of a machine.
type trafficCase struct {
	name   string
	rooted bool
	// words is the payload length for a subcube of dimension k when
	// every member contributes or receives w words.
	words func(k, w int) int
	// call runs the collective on p with its input data (nil on a
	// non-root of a rooted call that reads the root's data only) and
	// renders what p gets back.
	call func(p *hypercube.Proc, mask, rootRel int, data []float64) string
	// rootOnly reports that only the root passes data.
	rootOnly bool
}

func perMember(k, w int) int { return w << k }

func perTree(k, w int) int { return w * max(k, 1) }

// renderWords renders a result, telling nil from empty.
func renderWords(v []float64) string {
	if v == nil {
		return "nil"
	}
	return fmt.Sprint(v)
}

var trafficCases = []trafficCase{
	{name: "gather", rooted: true, words: func(_, w int) int { return w },
		call: func(p *hypercube.Proc, mask, root int, data []float64) string {
			return renderWords(Gather(p, mask, 1, root, data))
		}},
	{name: "scatter", rooted: true, rootOnly: true, words: perMember,
		call: func(p *hypercube.Proc, mask, root int, data []float64) string {
			return renderWords(Scatter(p, mask, 1, root, data))
		}},
	{name: "bcast-large", rooted: true, rootOnly: true, words: perMember,
		call: func(p *hypercube.Proc, mask, root int, data []float64) string {
			return renderWords(BcastLarge(p, mask, 1, root, data))
		}},
	{name: "reduce-scatter", words: perMember,
		call: func(p *hypercube.Proc, mask, _ int, data []float64) string {
			piece, off := ReduceScatter(p, mask, 1, data, Sum)
			return fmt.Sprintf("%s@%d", renderWords(piece), off)
		}},
	{name: "all-reduce", words: perMember,
		call: func(p *hypercube.Proc, mask, _ int, data []float64) string {
			return renderWords(AllReduce(p, mask, 1, data, Sum))
		}},
	{name: "bcast-allport", rooted: true, rootOnly: true, words: perTree,
		call: func(p *hypercube.Proc, mask, root int, data []float64) string {
			return renderWords(BcastAllPort(p, mask, 1, root, data))
		}},
	{name: "reduce-allport", rooted: true, words: perTree,
		call: func(p *hypercube.Proc, mask, root int, data []float64) string {
			return renderWords(ReduceAllPort(p, mask, 1, root, data, Sum))
		}},
}

// trafficMasks returns the masks the golden covers on a d-cube: all of
// them up to d = 3, the full and the two alternating ones at d = 4.
func trafficMasks(d int) []int {
	if d == 4 {
		return []int{0b1111, 0b0101, 0b1010}
	}
	masks := make([]int, 1<<d)
	for i := range masks {
		masks[i] = i
	}
	return masks
}

// trafficRun runs every case and returns one "name hash" line per case.
func trafficRun(t *testing.T) []string {
	var lines []string
	for _, allPorts := range []bool{false, true} {
		for d := 0; d <= 4; d++ {
			m, err := hypercube.New(d, nonIntegerParams(allPorts))
			if err != nil {
				t.Fatal(err)
			}
			results := make([]string, m.P())
			for _, tc := range trafficCases {
				for _, mask := range trafficMasks(d) {
					k := gray.OnesCount(mask)
					roots := 1
					if tc.rooted {
						roots = 1 << k
					}
					for root := 0; root < roots; root++ {
						for _, w := range []int{0, 1, 3} {
							n := tc.words(k, w)
							_, err := m.Run(func(p *hypercube.Proc) {
								var data []float64
								if !tc.rootOnly || rel(p, mask) == root {
									data = make([]float64, n)
									for j := range data {
										data[j] = float64(p.ID()*64+j) + 0.25
									}
								}
								results[p.ID()] = tc.call(p, mask, root, data)
							})
							name := fmt.Sprintf("%s allports=%v d=%d mask=%b root=%d w=%d", tc.name, allPorts, d, mask, root, w)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							var b strings.Builder
							fmt.Fprintf(&b, "elapsed %v\nclocks %v\nstats %+v\ncongestion %v\n",
								m.Elapsed(), m.Clocks(), m.LastStats(), m.Congestion(0))
							for id, r := range results {
								fmt.Fprintf(&b, "%d %s\n", id, r)
							}
							sum := sha256.Sum256([]byte(b.String()))
							lines = append(lines, fmt.Sprintf("%s %x", name, sum[:8]))
						}
					}
				}
			}
			m.Close()
		}
	}
	return lines
}

// TestCollectiveTrafficGolden pins every case against
// testdata/traffic.golden and names the cases that differ.
func TestCollectiveTrafficGolden(t *testing.T) {
	f, err := os.ReadFile("testdata/traffic.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(f))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	got := trafficRun(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cases differ from testdata/traffic.golden", bad, len(got))
	}
}
