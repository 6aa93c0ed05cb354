// helper.go is not machinepool.go: it belongs to
// the simulator side of the hypercube package, where the hostconc
// family stays silent — the identical violation here must produce no
// finding.
package hcpool

import "vmprim/internal/hypercube"

func runLockedElsewhere(p *pool, m *hypercube.Machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m.Run(func(q *hypercube.Proc) {})
}
