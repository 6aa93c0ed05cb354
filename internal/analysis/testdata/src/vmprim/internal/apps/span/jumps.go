// Fixtures for spanbalance's jump handling: break, continue and
// fallthrough are judged against the statement they really leave.
package span

import "vmprim/internal/hypercube"

// switchBreakInLoop: the break ends the switch case, not the loop, so
// the span it leaves open is the one the code after the switch closes.
func switchBreakInLoop(p *hypercube.Proc, ks []int) {
	for _, k := range ks {
		p.BeginSpan("iter")
		switch k {
		case 0:
			if len(ks) == 1 {
				break
			}
			p.Compute(1)
		default:
			p.Compute(2)
		}
		p.EndSpan()
	}
}

// labeledContinue restarts the outer loop at the outer loop's entry
// depth; the inner loop's (one deeper) is not its business.
func labeledContinue(p *hypercube.Proc, rows [][]int) {
outer:
	for _, row := range rows {
		p.BeginSpan("row")
		for _, v := range row {
			if v < 0 {
				p.EndSpan()
				continue outer
			}
			p.Compute(v)
		}
		p.EndSpan()
	}
}

// fallthroughLeak: the span opened in case 1 rides the fallthrough
// into case 2 and out of the switch, still open.
func fallthroughLeak(p *hypercube.Proc, k int) {
	switch k {
	case 1:
		p.BeginSpan("a")
		fallthrough
	case 2: // want `span depth differs between the cases of this switch`
		p.Compute(1)
	}
}
