package collective

import (
	"bytes"
	"strings"
	"testing"

	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
	"vmprim/internal/testutil"
)

// TestPoolRecovery kills one processor in the middle of a broadcast —
// after it received the payload, before it forwards it, so half the
// machine dies waiting — and requires the machine to be as good as
// new afterwards: 200 clean runs retain nothing, and a fully recorded
// run produces the documents of a fresh machine byte for byte.
func TestPoolRecovery(t *testing.T) {
	const d, n, tag = 6, 64, 1
	bcast := func(p *hypercube.Proc) {
		var data []float64
		if p.ID() == 0 {
			data = make([]float64, n)
			for i := range data {
				data[i] = float64(i)
			}
		}
		p.Recycle(Bcast(p, p.FullMask(), tag, 0, data))
	}
	documents := func(m *hypercube.Machine) []byte {
		m.EnableProfile(true)
		m.EnableCritPath(true)
		m.EnableTrace(1 << 12)
		if _, err := m.Run(bcast); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Profile().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := m.CritPath().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	m := newMachine(t, d)
	defer m.Close()
	// The first receiver of the tree holds the payload for half the
	// machine.
	ds := gray.AppendDims(nil, m.P()-1)
	victim := 1 << ds[d-1]
	_, err := m.Run(func(p *hypercube.Proc) {
		if p.ID() == victim {
			p.Recv(ds[d-1], subTag(tag, d-1))
			panic("boom")
		}
		bcast(p)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v, want the victim's panic", err)
	}

	run := func(times int) {
		for i := 0; i < times; i++ {
			if _, err := m.Run(bcast); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(20)
	before := testutil.LiveHeap()
	run(200)
	if per := (float64(testutil.LiveHeap()) - float64(before)) / 200; per >= 1024 {
		t.Errorf("live heap grew %.0f bytes per run over 200 runs after the failure, want < 1024", per)
	}

	fresh := newMachine(t, d)
	defer fresh.Close()
	if got, want := documents(m), documents(fresh); !bytes.Equal(got, want) {
		t.Errorf("recorded run after recovery differs from a fresh machine's (%d vs %d bytes)", len(got), len(want))
	}
}
