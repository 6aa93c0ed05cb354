package hypercube

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
)

// partsPayload is the payload processor pid sends under tag: 0-11
// words that name their sender, tag and position.
func partsPayload(pid, tag int) []float64 {
	w := make([]float64, (7*pid+tag)%12)
	for i := range w {
		w[i] = float64(1000*pid + 10*tag + i)
	}
	return w
}

// cutParts cuts words at up to three random points, so some parts are
// empty, and now and then sends an empty payload as no parts at all.
func cutParts(rng *rand.Rand, words []float64) [][]float64 {
	if len(words) == 0 && rng.Intn(2) == 0 {
		return nil
	}
	cuts := []int{0, len(words)}
	for k := rng.Intn(4); k > 0; k-- {
		cuts = append(cuts, rng.Intn(len(words)+1))
	}
	slices.Sort(cuts)
	parts := make([][]float64, len(cuts)-1)
	for i := range parts {
		parts[i] = words[cuts[i]:cuts[i+1]:cuts[i+1]]
	}
	return parts
}

// partsBody is three rounds of exchanges on every dimension in which
// each processor sends its payload, whole with SendOwned or cut at
// random points with SendOwnedParts, and checks its partner's,
// received with Recv or RecvParts to match. With die set, processor 0
// fails in the last round right after its first send, leaving its
// neighbors' messages to it queued on its links.
func partsBody(inParts, die bool) func(*Proc) {
	return func(p *Proc) {
		rng := rand.New(rand.NewSource(int64(p.ID())))
		for round := 0; round < 3; round++ {
			p.BeginSpan("round")
			for d := 0; d < p.Dim(); d++ {
				tag := 8*round + d
				words := partsPayload(p.ID(), tag)
				if inParts {
					p.SendOwnedParts(d, tag, cutParts(rng, words))
				} else {
					p.SendOwned(d, tag, words)
				}
				if die && round == 2 && p.ID() == 0 {
					panic("deliberate failure with messages in flight")
				}
				var got []float64
				if inParts {
					for _, pt := range p.RecvParts(d, tag, nil) {
						if len(pt) == 0 {
							panic("RecvParts handed over an empty part")
						}
						got = append(got, pt...)
					}
				} else {
					got = p.Recv(d, tag)
				}
				if want := partsPayload(p.Neighbor(d), tag); !slices.Equal(got, want) {
					panic(fmt.Sprintf("round %d dim %d: got %v, want %v", round, d, got, want))
				}
				p.Compute(len(got) + p.ID()%3)
			}
			p.EndSpan()
		}
	}
}

// TestSendOwnedPartsIsOneMessage: a payload sent in parts is, to the
// simulated machine and every recorder, the one message SendOwned of
// the concatenation is: clocks, counters, link loads and metrics, and
// the profile, Chrome trace and critical path byte for byte, and the
// post-mortem of a run that fails with such messages in flight. A
// plain Recv gathers the parts, a tag mismatch captures them gathered,
// and a run aborted with a message in parts queued leaves the machine
// as clean as a fresh one, its census counting that message once with
// all its words.
func TestSendOwnedPartsIsOneMessage(t *testing.T) {
	run := func(inParts, die bool) (*Machine, error) {
		m := MustNew(3, costmodel.CM2())
		m.EnableTrace(1 << 10)
		m.EnableProfile(true)
		m.EnableCritPath(true)
		_, err := m.Run(partsBody(inParts, die))
		return m, err
	}
	docs := func(m *Machine) map[string]string {
		var prof, trace, crit, met bytes.Buffer
		if err := m.Profile().WriteJSON(&prof); err != nil {
			t.Fatal(err)
		}
		if err := m.Profile().ChromeTrace(&trace, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.CritPath().WriteJSON(&crit); err != nil {
			t.Fatal(err)
		}
		if err := m.Metrics().Snapshot().WritePrometheus(&met); err != nil {
			t.Fatal(err)
		}
		return map[string]string{"profile": prof.String(), "trace": trace.String(), "critpath": crit.String(), "metrics": met.String()}
	}

	whole, err := run(false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	parts, err := run(true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer parts.Close()
	checkSameSimResults(t, "SendOwnedParts vs SendOwned", parts, whole)
	if a, b := parts.Congestion(0), whole.Congestion(0); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("link loads differ:\n%+v\n%+v", a, b)
	}
	if len(parts.Profile().Events) == 0 {
		t.Fatal("no message trace recorded")
	}
	want := docs(whole)
	for name, got := range docs(parts) {
		if got != want[name] {
			t.Errorf("%s differs between parts and whole messages", name)
		}
	}
	if len(parts.partLists) == 0 || !parts.linksEmpty() {
		t.Fatalf("after a clean run: %d part lists free, links empty %v", len(parts.partLists), parts.linksEmpty())
	}

	// The same program failing mid-run: the post-mortem, link census
	// included, reads the same.
	var reports [2]string
	for i, inParts := range []bool{false, true} {
		m, err := run(inParts, true)
		if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Fatalf("parts %v: Run error = %v, want the deliberate failure", inParts, err)
		}
		rep := m.PostMortem()
		if len(rep.Links) == 0 {
			t.Fatalf("parts %v: no message left in flight", inParts)
		}
		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		reports[i] = js.String()
		if !m.linksEmpty() {
			t.Fatalf("parts %v: links not empty after the failed run", inParts)
		}
		checkLikeFresh(t, fmt.Sprintf("parts %v after failure", inParts), m)
		m.Close()
	}
	if reports[0] != reports[1] {
		t.Errorf("post-mortems differ between whole and parts messages:\n%s\n%s", reports[0], reports[1])
	}

	// One message of three parts, 2 + 0 + 5 words, on a 2-processor
	// machine: gathered by a plain Recv, captured gathered on a tag
	// mismatch, and counted once with all its words when left queued.
	payload := []float64{1, 2, 3, 4, 5, 6, 7}
	send := func(p *Proc) {
		p.SendOwnedParts(0, 5, [][]float64{slices.Clone(payload[:2]), nil, slices.Clone(payload[2:])})
	}
	m := MustNew(1, costmodel.CM2())
	defer m.Close()
	if _, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			send(p)
		} else if got := p.Recv(0, 5); !slices.Equal(got, payload) {
			panic(fmt.Sprintf("Recv gathered %v, want %v", got, payload))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			send(p)
		} else {
			p.RecvParts(0, 6, nil)
		}
	}); err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("Run error = %v, want a tag mismatch", err)
	}
	if c := m.PostMortem().Procs[1].Captured; len(c) != 1 || c[0].Len != len(payload) || !slices.Equal(c[0].Head, payload[:capturedHeadWords]) {
		t.Fatalf("tag mismatch captured %+v, want the 7 words gathered", c)
	}
	if _, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			send(p)
			panic("deliberate failure with a message in parts queued")
		}
	}); err == nil {
		t.Fatal("the failing run succeeded")
	}
	if l := m.PostMortem().Links; len(l) != 1 || l[0].Queued != 1 || l[0].QueuedWords != len(payload) {
		t.Fatalf("census %+v, want one queued message of %d words", l, len(payload))
	}
	if !m.linksEmpty() || len(m.partLists) != 1 {
		t.Fatalf("after the aborted run: links empty %v, %d part lists free, want 1", m.linksEmpty(), len(m.partLists))
	}
	checkLikeFresh(t, "after a queued message in parts", m)
}
