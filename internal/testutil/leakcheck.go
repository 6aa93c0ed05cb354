// Package testutil holds helpers shared by the host-side test suites.
//
// The leak checker proves that the goroutines a test starts have
// stopped by the time it returns: a test that returns while one of
// its goroutines still runs fails with the leaked stacks' signatures.
//
// Usage, first line of the test:
//
//	defer testutil.CheckLeaks(t, testutil.Snapshot())
//
// Snapshot records the goroutines alive before the test body;
// CheckLeaks polls for a few seconds afterwards (goroutines are
// allowed to *finish* asynchronously — Close is typically a signal,
// not a join) and fails if any signature's count stays above its
// starting value.
package testutil

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// leakGrace bounds how long CheckLeaks waits for goroutines to finish
// on their own. A variable so the package's own tests can shorten it.
var leakGrace = 5 * time.Second

// Snapshot returns the multiset of currently-running goroutine
// signatures: one entry per distinct (top function, created-by) pair,
// with runtime, testing and signal-handling internals filtered out.
func Snapshot() map[string]int {
	return signatures()
}

// CheckLeaks fails the test if goroutines beyond the snapshot are
// still alive once the grace period runs out. Deferred first in the
// test, it runs after the body's own defers have closed whatever they
// close, so a surviving goroutine is a genuine leak, not a race with
// teardown.
func CheckLeaks(tb testing.TB, before map[string]int) {
	tb.Helper()
	const step = 20 * time.Millisecond
	deadline := time.Now().Add(leakGrace)
	var leaked []string
	for {
		leaked = leaked[:0]
		for sig, n := range signatures() {
			if extra := n - before[sig]; extra > 0 {
				leaked = append(leaked, fmt.Sprintf("%d leaked: %s", extra, sig))
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(step)
	}
	sort.Strings(leaked)
	tb.Errorf("goroutines survived the test:\n\t%s", strings.Join(leaked, "\n\t"))
}

// signatures parses runtime.Stack(all) into the signature multiset.
func signatures() map[string]int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	sigs := make(map[string]int)
	for _, block := range strings.Split(string(buf), "\n\n") {
		if sig, ok := parseBlock(block); ok {
			sigs[sig]++
		}
	}
	return sigs
}

// parseBlock reduces one goroutine's stack dump to its signature: the
// function on top of the stack plus the function that spawned it —
// stable across runs, unlike goroutine IDs, addresses or line
// offsets. Runtime background workers, the testing framework's own
// goroutines, and signal plumbing are not ours to account for.
func parseBlock(block string) (string, bool) {
	lines := strings.Split(strings.TrimSpace(block), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "goroutine ") {
		return "", false
	}
	top := funcName(lines[1])
	sig := top
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "created by "); ok {
			creator, _, _ := strings.Cut(rest, " in goroutine")
			sig = top + " ← " + creator
			break
		}
	}
	for _, skip := range []string{"runtime.", "testing.", "os/signal."} {
		if strings.HasPrefix(sig, skip) {
			return "", false
		}
	}
	return sig, true
}

// funcName strips the argument list from a stack frame's function
// line: everything from the last '(' on — method receivers keep their
// own parenthesized form, e.g. "serve.(*Server).worker".
func funcName(line string) string {
	if i := strings.LastIndex(line, "("); i > 0 {
		return line[:i]
	}
	return line
}
