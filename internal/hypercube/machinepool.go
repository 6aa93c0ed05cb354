package hypercube

import (
	"slices"
	"sync"

	"vmprim/internal/costmodel"
)

// MachinePool is an LRU cache of idle Machines keyed by dimension,
// for serving layers that run many workloads against a small set of
// machine shapes. Construction of a Machine is cheap but its steady
// state is expensive to rebuild: the first run creates the processors'
// coroutines and fills the machine's buffer pool, so a pool hit hands
// the caller a machine that already owns the buffers a run needs — and
// no more than its peak demand (see pool.go), however many tenants it
// has served. Acquire removes the machine from the pool (a Machine is
// single-tenant: one Run at a time), Release returns it; machines
// evicted by capacity pressure are Closed.
//
// The key is the dimension alone. Everything a pooled machine keeps
// warm — coroutines, buffer pool, span tables, chain and part free
// lists, flight recorders, the link store — is shaped by the dimension
// and the traffic, never by the cost model. The cost parameters are
// read only while a run charges time (Params, the charge edges,
// ExchangeAll's port model), so they belong to the acquisition: a hit
// under a different model is the same cube priced anew, and its run is
// identical to one on a fresh machine built with those parameters.
//
// The pool is safe for concurrent use. The machines themselves are
// not shared: between Acquire and Release exactly one goroutine owns
// the machine.

// MachinePool caches idle machines, most recently released first.
type MachinePool struct {
	mu  sync.Mutex
	cap int
	// idle is ordered most-recently-released first; eviction takes
	// from the tail.
	idle []*Machine

	hits, misses, evictions int64
}

// NewMachinePool returns a pool retaining at most capacity idle
// machines (capacity < 1 is treated as 1).
func NewMachinePool(capacity int) *MachinePool {
	if capacity < 1 {
		capacity = 1
	}
	return &MachinePool{cap: capacity}
}

// Acquire returns a machine of dimension dim that charges by params:
// the most recently released idle machine of that dimension when there
// is one (hit reports which), with its cost parameters set to params
// and its metrics registry reset to zero, or else a new machine. Either
// way the registry counts only the caller's runs, so a tenant's metrics
// are the machine's snapshot. Invalid params are rejected as New
// rejects them, before the pool is touched. The caller owns the machine
// until it calls Release (or Close, to retire it).
func (mp *MachinePool) Acquire(dim int, params costmodel.Params) (m *Machine, hit bool, err error) {
	if err := params.Validate(); err != nil {
		return nil, false, err
	}
	mp.mu.Lock()
	for i, im := range mp.idle {
		if im.dim == dim {
			mp.idle = slices.Delete(mp.idle, i, i+1)
			mp.hits++
			mp.mu.Unlock()
			im.params = params
			im.met.reg.Reset()
			return im, true, nil
		}
	}
	mp.misses++
	mp.mu.Unlock()
	m, err = New(dim, params)
	return m, false, err
}

// Release returns a machine to the pool, evicting (and Closing) the
// least recently released machine when the pool is over capacity.
func (mp *MachinePool) Release(m *Machine) {
	var evicted []*Machine
	mp.mu.Lock()
	// Inserted in place: once the slice has grown to the pool's
	// capacity, a release allocates nothing.
	mp.idle = slices.Insert(mp.idle, 0, m)
	for len(mp.idle) > mp.cap {
		last := len(mp.idle) - 1
		evicted = append(evicted, mp.idle[last])
		mp.idle[last] = nil
		mp.idle = mp.idle[:last]
		mp.evictions++
	}
	mp.mu.Unlock()
	for _, em := range evicted {
		em.Close()
	}
}

// PoolStats is a point-in-time summary of pool traffic.
type PoolStats struct {
	// Hits and Misses count Acquire calls served from the pool versus
	// by constructing a new machine; Evictions counts machines closed
	// by capacity pressure.
	Hits, Misses, Evictions int64
	// Idle is the number of machines currently pooled.
	Idle int
}

// Stats returns the pool's counters.
func (mp *MachinePool) Stats() PoolStats {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return PoolStats{
		Hits: mp.hits, Misses: mp.misses, Evictions: mp.evictions,
		Idle: len(mp.idle),
	}
}

// Close retires every pooled machine and empties the pool. Machines
// currently acquired are unaffected; releasing them afterwards pools
// them again (callers shutting down should Close machines instead of
// releasing them once the pool itself is closed).
func (mp *MachinePool) Close() {
	mp.mu.Lock()
	idle := mp.idle
	mp.idle = nil
	mp.mu.Unlock()
	for _, m := range idle {
		m.Close()
	}
}
