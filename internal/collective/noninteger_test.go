package collective

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// Every other golden runs on CM2, IPSC or Ideal, whose costs are whole
// numbers, so a change in the order of a float sum in the clock, the
// bucket split or the critical-path chain shows up in none of them.
// This one runs the one-port and all-port charge paths at costs that
// are not, and pins the elapsed time, the clocks, the profile JSON and
// the critical-path JSON of each against testdata/noninteger.golden.

// nonIntegerParams is a cost model none of whose terms is a whole
// number, so every sum of charges depends on its order.
func nonIntegerParams(allPorts bool) costmodel.Params {
	return costmodel.Params{
		CommStartup: 0.1, CommPerWord: 0.3, FlopTime: 0.7,
		RouteStartup: 0.1, RoutePerWord: 0.7, RoutePerMsg: 0.13,
		AllPorts: allPorts,
	}
}

// nonIntegerRun runs every clock-charging entry point once or more on
// a d = 3 machine with the profiler, message trace and critical path
// armed, and returns the recorded outputs as one string.
func nonIntegerRun(allPorts bool) (string, error) {
	const d = 3
	m, err := hypercube.New(d, nonIntegerParams(allPorts))
	if err != nil {
		return "", err
	}
	defer m.Close()
	m.EnableProfile(true)
	m.EnableTrace(64)
	m.EnableCritPath(true)
	mask := (1 << d) - 1
	_, err = m.Run(func(p *hypercube.Proc) {
		id := p.ID()
		p.BeginSpan("local")
		p.Compute(3*id + 1)
		p.EndSpan()
		data := []float64{float64(id), 0.5 * float64(id), 1, 2, 3, float64(id % 3)}
		AllReduce(p, mask, 1, data, Sum)
		if allPorts {
			var root []float64
			if id == 0 {
				root = data
			}
			BcastAllPort(p, mask, 2, 0, root)
			ReduceAllPort(p, mask, 3, 5, data, Sum)
		} else {
			var root []float64
			if id == 5 {
				root = data
			}
			Bcast(p, mask, 2, 5, root)
		}
		p.BeginSpan("route")
		for i := 0; i < 6; i++ {
			p.RoutePhaseCharge((id+i)%4, 3*i+id)
		}
		p.EndSpan()
		dims := []int{0, 1, 2}
		payloads := make([][]float64, len(dims))
		for i := range payloads {
			payloads[i] = make([]float64, 1+(id+2*i)%5)
		}
		p.BeginSpan("exchange")
		for _, buf := range p.ExchangeAll(dims, 4, payloads) {
			p.Recycle(buf)
		}
		p.EndSpan()
	})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "elapsed %v\nclocks %v\nprofile ", m.Elapsed(), m.Clocks())
	if err := m.Profile().WriteJSON(&buf); err != nil {
		return "", err
	}
	buf.WriteString("\ncritpath ")
	if err := m.CritPath().WriteJSON(&buf); err != nil {
		return "", err
	}
	buf.WriteString("\n")
	return buf.String(), nil
}

// TestNonIntegerCostsGolden pins both port models' outputs at
// non-integer costs against testdata/noninteger.golden.
func TestNonIntegerCostsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/noninteger.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, allPorts := range []bool{false, true} {
		out, err := nonIntegerRun(allPorts)
		if err != nil {
			t.Fatalf("allPorts=%v: %v", allPorts, err)
		}
		fmt.Fprintf(&got, "== allPorts %v\n%s", allPorts, out)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("outputs differ from testdata/noninteger.golden\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
