package testutil

import (
	"runtime"
	"runtime/debug"
)

// MallocsPerRun reports the average number of heap allocations per
// call of f after warm warm-up calls, in the spirit of
// testing.AllocsPerRun but tolerant of the simulator's worker
// goroutines allocating concurrently with the caller. While it counts,
// the process runs on one P, and the collector is off from before the
// warm-up calls: a collection that starts during the measured calls, or
// another goroutine running beside them, allocates objects of its own,
// and one that ends between the warm-up and the count may reclaim
// weakly held storage the warm-up made (a machine's scratch arena),
// either of which would blur an exact count.
func MallocsPerRun(warm, runs int, f func()) float64 {
	mallocs, _ := perRun(warm, runs, f)
	return mallocs
}

// BytesPerRun is MallocsPerRun counting the bytes allocated instead of
// the objects.
func BytesPerRun(warm, runs int, f func()) float64 {
	_, bytes := perRun(warm, runs, f)
	return bytes
}

// perRun returns the objects and bytes one call of f allocates, counted
// as MallocsPerRun describes.
func perRun(warm, runs int, f func()) (mallocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < warm; i++ {
		f()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
