package costmodel

import (
	"testing"
	"testing/quick"
)

func TestPresetsValid(t *testing.T) {
	for name, p := range map[string]Params{
		"CM2": CM2(), "IPSC": IPSC(), "Ideal": Ideal(), "CountOnly": CountOnly(),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	p := CM2()
	p.FlopTime = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative FlopTime accepted")
	}
}

func TestSendCost(t *testing.T) {
	p := Params{CommStartup: 10, CommPerWord: 2}
	if got := p.SendCost(5); got != 20 {
		t.Fatalf("SendCost(5) = %v, want 20", got)
	}
	if got := p.SendCost(0); got != 10 {
		t.Fatalf("SendCost(0) = %v, want 10", got)
	}
}

func TestRoutePhaseCost(t *testing.T) {
	p := Params{RouteStartup: 7, RoutePerWord: 3, RoutePerMsg: 2}
	if got := p.RoutePhaseCost(5, 4); got != 29 {
		t.Fatalf("RoutePhaseCost(5, 4) = %v, want 29", got)
	}
}

func TestFlopCost(t *testing.T) {
	p := Params{FlopTime: 0.5}
	if got := p.FlopCost(8); got != 4 {
		t.Fatalf("FlopCost(8) = %v, want 4", got)
	}
}

func TestSendCostMonotone(t *testing.T) {
	p := CM2()
	f := func(a, b uint16) bool {
		n, m := int(a), int(b)
		if n > m {
			n, m = m, n
		}
		return p.SendCost(n) <= p.SendCost(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouterDominatesEdge(t *testing.T) {
	// Forwarding one message through the general router must cost at
	// least a structured edge transfer in every realistic preset; the
	// naive baseline's disadvantage depends on it.
	for name, p := range map[string]Params{"CM2": CM2(), "IPSC": IPSC()} {
		for _, n := range []int{0, 1, 16, 1024} {
			if p.RoutePhaseCost(1, n) < p.SendCost(n) {
				t.Errorf("%s: router cheaper than edge at n=%d", name, n)
			}
		}
	}
}

func TestWithStartup(t *testing.T) {
	p := CM2().WithStartup(42)
	if p.CommStartup != 42 {
		t.Fatal("WithStartup did not set")
	}
	if CM2().CommStartup == 42 {
		t.Fatal("WithStartup mutated the preset")
	}
}

func TestWithAllPorts(t *testing.T) {
	if !CM2().WithAllPorts(true).AllPorts {
		t.Fatal("WithAllPorts(true) not set")
	}
	if CM2().WithAllPorts(false).AllPorts {
		t.Fatal("WithAllPorts(false) set")
	}
}

func TestCountOnlyIsFree(t *testing.T) {
	p := CountOnly()
	if p.SendCost(100) != 0 || p.FlopCost(100) != 0 || p.RoutePhaseCost(1, 100) != 0 {
		t.Fatal("CountOnly charges time")
	}
}
