// Fixtures for lockdiscipline on the all-paths engine: the
// lock-flavoured twins of apps/span/jumps.go (break, continue and
// fallthrough are judged against the statement they really leave), and
// the branch heads scanned under a held lock.
package hclock

// switchBreakInLoop: the break ends the switch case, not the loop, so
// the lock it still holds is the one the code after the switch drops.
func (b *broadcaster) switchBreakInLoop(ks []int) {
	for _, k := range ks {
		b.mu.Lock()
		switch k {
		case 0:
			if b.dropped > 0 {
				break
			}
			b.dropped++
		default:
			b.dropped = k
		}
		b.mu.Unlock()
	}
}

// labeledContinue restarts the outer loop at the outer loop's entry
// depth; the inner loop's (one deeper) is not its business.
func (b *broadcaster) labeledContinue(rows [][]int) {
outer:
	for _, row := range rows {
		b.mu.Lock()
		for _, v := range row {
			if v < 0 {
				b.mu.Unlock()
				continue outer
			}
			b.dropped += v
		}
		b.mu.Unlock()
	}
}

// fallthroughLeak: the lock taken in case 1 rides the fallthrough into
// case 2 and out of the switch, still held.
func (b *broadcaster) fallthroughLeak(k int) {
	switch k {
	case 1:
		b.mu.Lock()
		fallthrough
	case 2: // want `lock state of b\.mu differs between the cases of this switch`
		b.dropped++
	}
}

// typeSwitchGuard: a type switch's guard is evaluated under the lock
// like any other branch head.
func (b *broadcaster) typeSwitchGuard(ch chan any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch (<-ch).(type) { // want `a receive from ch while b\.mu is held`
	case int:
		b.dropped++
	}
}
