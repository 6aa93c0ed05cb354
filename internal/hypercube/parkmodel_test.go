package hypercube

import (
	"fmt"
	"strings"
	"testing"
)

// An exhaustive model of the park/wake protocol of link.go. The stress
// tests repeat the protocol's races and hope to hit them; the state
// space is small enough to walk instead. One waiter on a ring of
// capacity 1, its link partner, an aborting sibling and the watchdog
// each advance one atomic operation at a time — sync/atomic is
// sequentially consistent, so an execution is an interleaving of those
// operations — and every enabled step is tried from every reachable
// state. The waiter is a receiver on an empty ring as much as a sender
// on a full one: Proc.park runs the same loop for both, and all that
// differs is which ring index the partner moves to make the ring ready.
// Each step below names the line of link.go it stands for; the model is
// only as good as that correspondence, so a change to the protocol
// changes it here too.

// parkModel selects the cast and, for the negative controls, a defect.
type parkModel struct {
	abort   bool // a sibling fails during the wait
	windows int  // window boundaries the watchdog goes through

	// The rejected first cut of expire: mark on a bare look at the park
	// word, then interrupt.
	unclaimedMark bool
	// The defect TestLostWakeupStress is tuned to: re-check the ring
	// before publishing the park word instead of after.
	checkBeforePublish bool
}

// Waiter steps, in the order Proc.park and parker.cancel take them.
const (
	wPublish    = iota // pk.state.Store(w)
	wCheckRing         // case ring ready
	wCheckAbort        // case p.rc.aborted.Load()
	wCheckMark         // case p.pk.expired.Load()
	wSleep             // <-p.pk.wake
	wCancel            // cancel: pk.state.CompareAndSwap(w, 0)
	wDrain             // cancel: <-pk.wake
	wLoadMark          // cancel: pk.expired.Load()
	wClearMark         // cancel: pk.expired.Store(false)
	wAct               // back in park: return, panic or judge
	wDone
)

// Why the waiter is withdrawing its publication.
const (
	delivered = iota + 1
	aborted
	expired
)

// Waker steps: unpark, interrupt and expire are the same load, claim
// and send; expire stores the mark in between.
const (
	kStart = iota // the partner moves its ring index; the sibling sets the abort flag; a window ends
	kLoad         // pk.state.Load()
	kClaim        // pk.state.CompareAndSwap(w, 0)
	kMark         // expire: pk.expired.Store(true)
	kSend         // pk.wake <- struct{}{}
	kDone
	// The unclaimedMark defect: look, mark, and only then interrupt.
	kBareLoad
	kBareMark
)

// loop is the order of the waiter's loop in Proc.park.
func (pm parkModel) loop() [5]int8 {
	if pm.checkBeforePublish {
		return [...]int8{wCheckRing, wPublish, wCheckAbort, wCheckMark, wSleep}
	}
	return [...]int8{wPublish, wCheckRing, wCheckAbort, wCheckMark, wSleep}
}

// after returns the step that follows pc in the waiter's loop.
func (pm parkModel) after(pc int8) int8 {
	loop := pm.loop()
	for i, step := range loop {
		if step == pc {
			return loop[(i+1)%len(loop)]
		}
	}
	panic("not a loop step")
}

// parkState is one state of the model. The model has one waiter on one
// link, so the park word is either that waiter's word or zero.
type parkState struct {
	ready   bool // the ring has what the waiter waits for
	word    bool // the park word is published
	mark    bool // parker.expired
	aborted bool // runCtx.aborted
	tokens  int8 // in parker.wake

	wpc, why int8
	marks    int8 // boundaries this wait has been marked at and survived

	partner, sibling, watchdog int8
	windows                    int8 // boundaries left
}

// step advances actor by one operation and returns the successor, the
// step's name for the trace, and a violation if the step itself breaks
// the protocol. ok is false when the actor has nothing enabled.
func (pm parkModel) step(s parkState, actor int) (next parkState, name, violation string, ok bool) {
	// waker runs the shared load/claim/send tail of a waker at *pc.
	waker := func(who string, pc *int8, marks bool) {
		switch *pc {
		case kLoad:
			name = who + " loads the park word"
			*pc = kDone
			if s.word {
				*pc = kClaim
			}
		case kClaim:
			name = who + " claims the park word"
			*pc = kDone
			if s.word {
				s.word = false
				*pc = kSend
				if marks {
					*pc = kMark
				}
			}
		case kMark:
			name = who + " stores the mark"
			s.mark = true
			*pc = kSend
		case kSend:
			name = who + " sends the token"
			if s.tokens++; s.tokens > 1 {
				violation = "a second token for one publication: the one-slot wake channel would block its sender"
			}
			*pc = kDone
		}
	}
	ok = true
	switch actor {
	case 0: // the waiter
		switch s.wpc {
		case wPublish:
			name = "waiter publishes"
			if s.tokens != 0 {
				violation = "a token was left over from the previous publication"
			}
			s.word = true
			s.wpc = pm.after(wPublish)
		case wCheckRing:
			name = "waiter re-checks the ring"
			switch {
			case !s.ready:
				s.wpc = pm.after(wCheckRing)
			case pm.checkBeforePublish:
				s.why, s.wpc = delivered, wAct // nothing published to withdraw
			default:
				s.why, s.wpc = delivered, wCancel
			}
		case wCheckAbort:
			name = "waiter loads the abort flag"
			s.wpc = pm.after(wCheckAbort)
			if s.aborted {
				s.why, s.wpc = aborted, wCancel
			}
		case wCheckMark:
			name = "waiter loads the mark"
			s.wpc = pm.after(wCheckMark)
			if s.mark {
				s.why, s.wpc = expired, wCancel
			}
		case wSleep, wDrain:
			if s.tokens == 0 {
				return s, "", "", false
			}
			name = "waiter takes the token"
			s.tokens--
			if s.wpc == wSleep {
				s.wpc = pm.after(wSleep)
			} else {
				s.wpc = wLoadMark
			}
		case wCancel:
			name = "waiter withdraws the park word"
			s.wpc = wDrain
			if s.word {
				s.word = false
				s.wpc = wLoadMark
			}
		case wLoadMark:
			name = "waiter loads the mark to clear it"
			s.wpc = wAct
			if s.mark {
				s.wpc = wClearMark
			}
		case wClearMark:
			name = "waiter clears the mark"
			s.mark = false
			s.wpc = wAct
		case wAct:
			s.wpc = wDone
			switch {
			case s.why == delivered:
				name = "waiter returns with the ring ready"
			case s.why == aborted:
				name = "waiter dies of the abort"
			case s.marks > 0:
				name = "waiter dies of the deadlock"
			default:
				// No wait completes inside the one wait modelled, so the
				// second mark is always the deadlock.
				name = "waiter survives the boundary"
				s.marks++
				s.wpc = pm.after(wSleep)
			}
			if s.mark {
				violation = "the mark outlived the wait it was set for"
			}
		default:
			ok = false
		}
	case 1: // the link partner: push or pop, then unpark
		if s.partner == kStart {
			name = "partner moves its ring index"
			s.ready = true
			s.partner = kLoad
		} else if s.partner != kDone {
			waker("partner", &s.partner, false)
		} else {
			ok = false
		}
	case 2: // the failing sibling: runCtx.abort, then interrupt
		if !pm.abort || s.sibling == kDone {
			ok = false
		} else if s.sibling == kStart {
			name = "sibling sets the abort flag"
			s.aborted = true
			s.sibling = kLoad
		} else {
			waker("sibling", &s.sibling, false)
		}
	case 3: // Run's goroutine at a window boundary: expire
		switch {
		case s.windows == 0:
			ok = false
		case s.watchdog == kStart:
			name = "a window ends"
			s.watchdog = kLoad
			if pm.unclaimedMark {
				s.watchdog = kBareLoad
			}
		case s.watchdog == kBareLoad:
			name = "watchdog looks at the park word"
			s.watchdog = kDone
			if s.word {
				s.watchdog = kBareMark
			}
		case s.watchdog == kBareMark:
			name = "watchdog stores the mark on what it saw"
			s.mark = true
			s.watchdog = kLoad
		default:
			waker("watchdog", &s.watchdog, !pm.unclaimedMark)
		}
		if ok && s.watchdog == kDone {
			s.watchdog = kStart
			s.windows--
		}
	}
	return s, name, violation, ok
}

// check walks every interleaving and returns the first violation found
// with the trace that reaches it, or "" and the number of states seen.
func (pm parkModel) check() (string, int) {
	start := parkState{wpc: pm.loop()[0], windows: int8(pm.windows)}
	type edge struct {
		from parkState
		name string
	}
	seen := map[parkState]edge{start: {}}
	trace := func(s parkState, last string) string {
		var steps []string
		for s != start {
			e := seen[s]
			steps = append(steps, e.name)
			s = e.from
		}
		var b strings.Builder
		for i := len(steps) - 1; i >= 0; i-- {
			fmt.Fprintf(&b, "\n\t%s", steps[i])
		}
		if last != "" {
			fmt.Fprintf(&b, "\n\t%s", last)
		}
		return b.String()
	}
	stack := []parkState{start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stuck := true
		for actor := 0; actor < 4; actor++ {
			next, name, violation, ok := pm.step(s, actor)
			if !ok {
				continue
			}
			stuck = false
			if violation != "" {
				return violation + ":" + trace(s, name), len(seen)
			}
			if _, old := seen[next]; !old {
				seen[next] = edge{s, name}
				stack = append(stack, next)
			}
		}
		if !stuck {
			continue
		}
		// Everybody has finished, or the waiter sleeps and nobody is left
		// to wake it. The partner always moves, so the waiter always has
		// a reason to come back.
		switch {
		case s.wpc != wDone:
			return "lost wake-up, the waiter sleeps for ever:" + trace(s, ""), len(seen)
		case s.tokens != 0:
			return "a token was left in wake after the waiter returned:" + trace(s, ""), len(seen)
		case s.mark:
			return "the mark was left set after the waiter returned:" + trace(s, ""), len(seen)
		}
	}
	return "", len(seen)
}

func TestLinkParkProtocolModel(t *testing.T) {
	states := 0
	for _, abort := range []bool{false, true} {
		for windows := 0; windows <= 3; windows++ {
			pm := parkModel{abort: abort, windows: windows}
			violation, n := pm.check()
			if violation != "" {
				t.Fatalf("%+v: %s", pm, violation)
			}
			states += n
		}
	}
	t.Logf("%d states, no violation", states)

	// A checker that cannot fail proves nothing: each seeded defect must
	// be found, as the kind of failure it is.
	for _, c := range []struct {
		pm   parkModel
		want string
	}{
		{parkModel{windows: 1, unclaimedMark: true}, "the mark"},
		{parkModel{checkBeforePublish: true}, "lost wake-up"},
	} {
		violation, _ := c.pm.check()
		if !strings.Contains(violation, c.want) {
			t.Fatalf("%+v: found %q, want a violation about %q", c.pm, violation, c.want)
		}
		t.Logf("%+v is caught: %s", c.pm, violation)
	}
}
