package costmodel

import "testing"

// The predictor values below are hand-computed from the CM2 preset
// (start-up 100, per-word 4, flop 1; router 200/4/2) so a formula
// regression shows up as a concrete number, not a symbolic identity.

func TestPredictorsAgainstHandComputedCM2(t *testing.T) {
	p := CM2()
	cases := []struct {
		name string
		got  Time
		want float64
	}{
		{"bcast k=3 n=10", PredictBcast(p, 3, 10), 3 * (100 + 40)},
		{"reduce k=3 n=10", PredictReduce(p, 3, 10), 3 * (100 + 40 + 10)},
		{"reduce-scatter k=2 n=8", PredictReduceScatter(p, 2, 8), 200 + 8*0.75*(4+1)},
		{"all-gather k=2 piece=4", PredictAllGather(p, 2, 4), 200 + 12*4},
		{"scatter k=2 n=8 hdr=2", PredictScatter(p, 2, 8, 2), 200 + (8*0.75+12)*4},
		{"all-to-all k=2 sz=3", PredictAllToAll(p, 2, 3), 2 * (100 + 6*4)},
		{"scan k=2 n=5", PredictScan(p, 2, 5), 2 * (100 + 20 + 10)},
		{"bcast-allport k=4 n=16", PredictBcastAllPort(p, 4, 16), 4 * (100 + 16)},
		{"reduce-allport k=4 n=16", PredictReduceAllPort(p, 4, 16), 4 * (100 + 16 + 4)},
		{"route d=2 m=4 w=10 hdr=2", PredictRoute(p, 2, 4, 10, 2),
			2 * (200 + 5*4 + 2*2 + 100 + (5+2*2)*4)},
	}
	for _, c := range cases {
		if float64(c.got) != c.want {
			t.Errorf("%s = %g, want %g", c.name, float64(c.got), c.want)
		}
	}
}

func TestPredictGatherMirrorsScatter(t *testing.T) {
	p := IPSC()
	if g, s := PredictGather(p, 3, 16, 2), PredictScatter(p, 3, 16*8, 2); g != s {
		t.Fatalf("gather %g != scatter with the total volume %g", float64(g), float64(s))
	}
}

// TestPredictAllReduceMirrorsAlgorithmSwitch pins the predictor to the
// exact branch condition collective.AllReduce evaluates.
func TestPredictAllReduceMirrorsAlgorithmSwitch(t *testing.T) {
	p := CM2()
	// Long divisible payload: halving+doubling wins, so the prediction
	// is reduce-scatter plus all-gather.
	long := PredictAllReduce(p, 3, 512)
	if want := PredictReduceScatter(p, 3, 512) + PredictAllGather(p, 3, 64); long != want {
		t.Fatalf("long all-reduce = %g, want halving+doubling %g", float64(long), float64(want))
	}
	// Short payload: recursive doubling with combining at every step.
	short := PredictAllReduce(p, 3, 4)
	if want := Time(3) * (p.SendCost(4) + p.FlopCost(4)); short != want {
		t.Fatalf("short all-reduce = %g, want recursive doubling %g", float64(short), float64(want))
	}
}

func TestPredictorsZeroOnEmptySubcube(t *testing.T) {
	p := CM2()
	for name, got := range map[string]Time{
		"bcast":          PredictBcast(p, 0, 100),
		"reduce-scatter": PredictReduceScatter(p, 0, 100),
		"all-gather":     PredictAllGather(p, 0, 100),
		"all-reduce":     PredictAllReduce(p, 0, 100),
		"scatter":        PredictScatter(p, 0, 100, 2),
		"all-to-all":     PredictAllToAll(p, 0, 100),
		"bcast-allport":  PredictBcastAllPort(p, 0, 100),
		"reduce-allport": PredictReduceAllPort(p, 0, 100),
		"route":          PredictRoute(p, 0, 3, 100, 2),
	} {
		if got != 0 {
			t.Errorf("%s with k=0 = %g, want 0", name, float64(got))
		}
	}
}

// TestPreferTwoPhase checks the crossover rule's guards, that a tie
// keeps the tree, and the rule against the literal cost formulas
// k*(tau + n*t_c) and 2k*tau + 2n*t_c on both 1989 presets.
func TestPreferTwoPhase(t *testing.T) {
	p := CM2()
	for _, c := range []struct {
		name string
		k, n int
		want bool
	}{
		{"long divisible payload", 3, 512, true},
		{"short payload", 3, 8, false},
		{"empty subcube", 0, 1 << 20, false},
		{"empty payload", 3, 0, false},
		{"n not divisible by 2^k", 3, 1004, false},
	} {
		if got := p.PreferTwoPhase(c.k, c.n); got != c.want {
			t.Errorf("%s: PreferTwoPhase(%d, %d) = %v, want %v", c.name, c.k, c.n, got, c.want)
		}
	}
	// With free start-up and k = 2 both forms cost 2n*t_c: a tie.
	if Ideal().PreferTwoPhase(2, 4) {
		t.Error("a cost tie chose the two-phase form, want the tree")
	}
	for name, p := range map[string]Params{"cm2": CM2(), "ipsc": IPSC()} {
		tau, tc := float64(p.CommStartup), float64(p.CommPerWord)
		for k := 0; k <= 8; k++ {
			for n := 0; n <= 2048; n++ {
				tree := float64(k) * (tau + float64(n)*tc)
				split := 2*float64(k)*tau + 2*float64(n)*tc
				want := k > 0 && n > 0 && n%(1<<k) == 0 && split < tree
				if got := p.PreferTwoPhase(k, n); got != want {
					t.Fatalf("%s: PreferTwoPhase(%d, %d) = %v, formulas say %v", name, k, n, got, want)
				}
			}
		}
	}
}
