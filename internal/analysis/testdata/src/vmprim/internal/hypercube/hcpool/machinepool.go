// Fixture for the family's file-level scoping inside the hypercube
// package: only machinepool.go is host-concurrent —
// the rest of the package is the virtual-time simulator. This file is
// named machinepool.go, so its findings are reported; helper.go in
// the same package is not.
package hcpool

import (
	"sync"

	"vmprim/internal/hypercube"
)

type pool struct {
	mu   sync.Mutex
	free []*hypercube.Machine
}

// closeLocked tears a machine down with the pool lock held: the
// seeded version of the window the real MachinePool.Release avoids.
func (p *pool) closeLocked(m *hypercube.Machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m.Close() // want `a Machine\.Close while p\.mu is held`
}

// evict mirrors the real pool: collect the victims under the lock,
// close them outside it. Clean.
func (p *pool) evict() {
	p.mu.Lock()
	victims := p.free
	p.free = nil
	p.mu.Unlock()
	for _, m := range victims {
		m.Close()
	}
}
