package testutil

import "runtime"

// MallocsPerRun reports the average number of heap allocations per
// call of f after warm warm-up calls, in the spirit of
// testing.AllocsPerRun but tolerant of the simulator's worker
// goroutines allocating concurrently with the caller.
func MallocsPerRun(warm, runs int, f func()) float64 {
	for i := 0; i < warm; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// LiveHeap returns the bytes of heap objects still reachable after a
// full collection: two readings around a loop say what the loop
// retained.
func LiveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
