package hypercube

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/obs"
)

// FuzzTraceFlows runs a random SPMD program with the profiler and the
// message trace armed, and checks the profile's flow events against the
// program's own log of what every processor sent: the messages on
// processor 0's links, the first limit of each sender, ordered by arrival
// time, then source, then the order the source sent them. The program is
// one op per byte: an exchange, compute that depends on the processor, an
// exchange on every dimension at once (the largest payload first, so under
// the all-port model a processor posts out of time order), or a burst of
// sends before the matching receives.
func FuzzTraceFlows(f *testing.F) {
	f.Add(uint8(2), uint8(4), false, []byte{0x00, 0x05, 0x12, 0x27, 0x33})
	f.Add(uint8(2), uint8(3), true, []byte{0x02, 0x06, 0x0a, 0x40, 0x02})
	f.Add(uint8(1), uint8(1), true, []byte{0x03, 0x13, 0x02, 0x01, 0x00})
	f.Add(uint8(0), uint8(0), false, []byte{0x00, 0x03})
	f.Add(uint8(2), uint8(8), true, []byte{})
	f.Fuzz(func(t *testing.T, dim, limit uint8, allPorts bool, prog []byte) {
		d := 1 + int(dim)%3
		lim := int(limit) % 9
		if len(prog) > 48 {
			prog = prog[:48]
		}
		params := costmodel.CM2().WithAllPorts(allPorts)
		m := MustNew(d, params)
		defer m.Close()
		m.EnableProfile(true)
		m.EnableTrace(lim)

		logs := make([][]obs.LinkEvent, m.P())
		sent := func(p *Proc, dd, tag, words int, at costmodel.Time) {
			logs[p.ID()] = append(logs[p.ID()], obs.LinkEvent{
				Time: at, Src: p.ID(), Dst: p.ID() ^ 1<<dd, Dim: dd, Words: words, Tag: tag,
			})
		}
		_, err := m.Run(func(p *Proc) {
			p.BeginSpan("prog")
			dims := make([]int, d)
			payloads := make([][]float64, d)
			for i, op := range prog {
				dd := int(op>>2) % d
				n := (int(op>>4) + p.ID()) % 4
				switch op & 3 {
				case 0:
					p.Send(dd, i, make([]float64, n))
					sent(p, dd, i, n, p.Clock())
					p.Recycle(p.Recv(dd, i))
				case 1:
					p.Compute(int(op>>2) * (1 + p.ID()))
				case 2:
					at := p.Clock()
					for k := range dims {
						dims[k], payloads[k] = k, make([]float64, n+d-k)
						if allPorts {
							sent(p, k, i, n+d-k, at+params.SendCost(n+d-k))
						} else {
							at += params.SendCost(n + d - k)
							sent(p, k, i, n+d-k, at)
						}
					}
					for _, got := range p.ExchangeAll(dims, i, payloads) {
						p.Recycle(got)
					}
				case 3: // both partners must send the same count
					burst := 1 + int(op>>4)%4
					for j := 0; j < burst; j++ {
						p.Send(dd, i, []float64{float64(j)})
						sent(p, dd, i, 1, p.Clock())
					}
					for j := 0; j < burst; j++ {
						p.Recycle(p.Recv(dd, i))
					}
				}
			}
			p.EndSpan()
		})
		if err != nil {
			t.Fatal(err)
		}

		type keyed struct {
			ev  obs.LinkEvent
			seq int
		}
		var want []keyed
		for _, log := range logs {
			kept := 0
			for seq, ev := range log {
				if (ev.Src == 0 || ev.Dst == 0) && kept < lim {
					want = append(want, keyed{ev, seq})
					kept++
				}
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.ev.Time != b.ev.Time {
				return a.ev.Time < b.ev.Time
			}
			if a.ev.Src != b.ev.Src {
				return a.ev.Src < b.ev.Src
			}
			return a.seq < b.seq
		})
		wantEv := make([]obs.LinkEvent, len(want))
		for i, k := range want {
			wantEv[i] = k.ev
		}
		pf := m.Profile()
		if !slices.Equal(pf.Events, wantEv) {
			t.Fatalf("flow events\n got %+v\nwant %+v", pf.Events, wantEv)
		}

		// Every recorded message joins two drawn tracks, so the Chrome
		// trace draws each one.
		var buf bytes.Buffer
		if err := pf.ChromeTrace(&buf, 0); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(buf.Bytes(), []byte(`{"ph":"s",`)); got != len(wantEv) {
			t.Fatalf("Chrome trace draws %d arrows, want %d", got, len(wantEv))
		}
	})
}
