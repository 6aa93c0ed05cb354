// Fixtures for chanprotocol's jump handling: what a path closed before
// a break leaves with it, to the statement the break really ends.
package hcchan

// closeThenBreak leaves the loop with ch closed — from inside an if,
// where the arm's own out-state is dropped as diverged.
func closeThenBreak(ch chan int, xs []int) {
	for _, x := range xs {
		if x < 0 {
			close(ch) // want `close of ch inside a loop runs on every iteration`
			break
		}
	}
	ch <- 1 // want `send on ch, which some path may already have closed`
}

// closeThenSwitchBreak ends the case, not the loop: the close reaches
// the send after the switch.
func closeThenSwitchBreak(ch chan int, k int) {
	switch k {
	case 0:
		if k == 0 {
			close(ch)
			break
		}
	}
	ch <- 1 // want `send on ch, which some path may already have closed`
}
