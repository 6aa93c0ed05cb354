#!/usr/bin/env python3
"""Mutation harness for the host-concurrency code: the serving plane
(internal/serve, internal/metrics), the machine pool
(internal/hypercube/machinepool.go) and the two daemons' mains
(cmd/vmload, cmd/vmprimd); for the run-scoped slab, the
per-processor store of Envs and temporary headers in
internal/core/core.go that Machine.Run (internal/hypercube/machine.go)
rewinds after every Run, the machine's scratch arena that backs
those headers' storage (Proc.Scratch, in machine.go), and the step
scopes that give a loop's temporaries back (Env.Mark and Env.Release
over the slab, Proc.ScratchMark and RewindScratch over the arena);
for the staging
of a driver's operands inside its Run (Env.LoadDense, LoadSlice,
StoreDense and StoreSlice, in internal/core/hostio.go, and the shared
forward-elimination step of internal/apps/gauss.go); for the
machine-level route (the rendezvous Proc.Meet and the pairwise phase
edge RoutePair in internal/hypercube/route.go, and the phase loop of
internal/router/router.go that drives them); for the embedding
changes' addressing (the destination tables of Realign and
TransposeInto in internal/core/remap.go); for the router's held wires
(the two lanes of internal/router/router.go, the EndRun Machine.Run
calls on the router's slot, and the copy SolveTridiagBatch makes of
its routed results); and for the SPMD
code the collorder analyzer and the runtime span-balance check guard
(internal/core, internal/collective, internal/apps).

Each mutant is data: a file, an exact old text, the new text that
replaces it, and the bug class it seeds. The harness copies a source
tree to a temporary directory, builds vmlint there once, then for each
mutant applies it, runs the checks below, restores the file, and
finally prints one Markdown table row per mutant:

  * vmlint -json ./...: every finding, as analyzer, position and
    message;
  * go test -race -timeout 60s on ./internal/serve, ./internal/metrics
    and ./cmd/vmload, and on the MachinePool tests of
    ./internal/hypercube: the failing tests, and why they failed
    (panic, data race, or the binary's timeout). Not run for the slab's
    or the SPMD code's mutants: a Run is one thread, so the race
    detector has nothing to say about it;
  * the other tests of the mutated code: for internal/metrics the
    packages that import it, for machinepool.go the rest of
    internal/hypercube and the facade; for cmd/vmload and cmd/vmprimd
    the end-to-end smokes scripts/check.sh runs (vmload's in-process
    mini-burst; vmprimd's submit, wait, scrape and SIGTERM steps); for
    the slab and the SPMD code, core, collective, hypercube, apps,
    bench (the golden tables), obs (the golden profile renders) and
    the facade, and for the route,
    the router and machine.go the router's tests as well.

A mutant whose old text is not found, or that does not compile, is
reported as such; it decides nothing.

Usage, from the repository root (needs go, and python3 only):

    scripts/mutants.py                  # mutants against HEAD
    scripts/mutants.py --tree DIR       # against a copy of DIR
    scripts/mutants.py --only L1 B2     # a subset, by id
    scripts/mutants.py --list           # the mutants, no runs
    scripts/mutants.py --logs DIR       # keep each mutant's test output

To audit a past revision, extract it first (git archive REV | tar -x
-C DIR) and pass --tree DIR. The tree given is never modified.

scripts/check.sh does not run this: one pass takes about 40 minutes on
2 vCPUs, most of it in the 60 s timeouts of mutants that deadlock.
The I, P, T and W classes are the SPMD analyzers' yield audit
(ROADMAP item 3(d)): which bugs collorder, recyclecheck and
simdeterminism catch that the tests do not, and the reverse. The N
class audits the tests alone: span balance has no analyzer, since every
Run checks it.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

CLASSES = {
    "L": "lock held past a branch",
    "A": "double acquire",
    "B": "blocking operation under a lock",
    "G": "goroutine with no exit",
    "C": "double close or close in a loop",
    "S": "send on a closed channel or close by the receiver",
    "K": "go closure capturing a variable the loop writes",
    "E": "run-scoped slab not rewound after a failed Run",
    "R": "run-scoped slab keeps a header's storage",
    "D": "run-scoped slot handed out twice in one Run",
    "U": "run-scoped slab serves a make past its limit instead of refusing it",
    "X": "spent header not refused by name",
    "Z": "scratch arena held strongly or late, not rewound, not zeroed or overlapping",
    "N": "span left open on one path, or closed at the wrong point",
    "I": "collective guarded by identity, or structural argument derived from ID()",
    "P": "Recycle dropped: a pooled buffer leaks",
    "T": "tag skewed across a call",
    "W": "wall clock in a sim package",
    "H": "staging inside a Run reads or writes the wrong words or column window, or charges time; the shared elimination step loses a sign",
    "M": "step scope releases too much or too little, or the arena forgets a released peak",
    "Q": "machine-level route charges, records or orders a phase unlike its two messages, or strands a processor",
    "J": "an embedding change addresses an element by the wrong owner or offset",
    "V": "a routed wire reused while a receiver may still read it, or held strongly between Runs",
}

SSE = "internal/serve/sse.go"
SERVER = "internal/serve/server.go"
REGISTRY = "internal/serve/registry.go"
EXECUTOR = "internal/serve/executor.go"
METRICS = "internal/metrics/metrics.go"
POOL = "internal/hypercube/machinepool.go"
VMLOAD = "cmd/vmload/main.go"
VMPRIMD = "cmd/vmprimd/main.go"
MACHINE = "internal/hypercube/machine.go"
CORE = "internal/core/core.go"
SLAB = (MACHINE, CORE)
COLL = "internal/collective/collective.go"
EXTRACT = "internal/core/extract.go"
VECOPS = "internal/core/vecops.go"
REDUCE = "internal/core/reduce.go"
SIMPLEX = "internal/apps/simplex.go"
CG = "internal/apps/cg.go"
SPREAD = "internal/core/spread.go"
MATVEC = "internal/apps/matvec.go"
NAIVE = "internal/apps/naive.go"
LU = "internal/apps/lu.go"
HOSTIO = "internal/core/hostio.go"
GAUSS = "internal/apps/gauss.go"
SPMD = ("internal/core/", "internal/collective/", "internal/apps/")
ROUTE = "internal/hypercube/route.go"
ROUTER = "internal/router/router.go"
REMAP = "internal/core/remap.go"
TRIDIAG = "internal/apps/tridiag.go"

# id, file, site (function), old text, new text. The class is the id's
# letter.
MUTANTS = [
    # L: a path out of the critical section that skips the Unlock.
    ("L1", SSE, "broadcaster.publish: closed branch returns locked",
     "\tif b.closed {\n\t\tb.mu.Unlock()\n\t\treturn\n\t}\n",
     "\tif b.closed {\n\t\treturn\n\t}\n"),
    ("L2", SERVER, "Server.handleSubmit: shutting-down branch returns locked",
     "\tif s.closed {\n\t\ts.closedMu.Unlock()\n\t\twriteError(",
     "\tif s.closed {\n\t\twriteError("),
    ("L3", SERVER, "Server.handleSubmit: queue-full branch returns locked",
     "\tdefault:\n\t\ts.closedMu.Unlock()\n\t\ts.finishRun(",
     "\tdefault:\n\t\ts.finishRun("),
    ("L4", POOL, "MachinePool.Acquire: hit path returns locked",
     "\t\t\tmp.hits++\n\t\t\tmp.mu.Unlock()\n",
     "\t\t\tmp.hits++\n"),
    ("L5", SSE, "broadcaster.unsubscribe: unlocks only when subscribed",
     "\t\tdelete(b.subs, ch)\n\t\tclose(ch)\n\t}\n\tb.mu.Unlock()\n}\n\n// close ends",
     "\t\tdelete(b.subs, ch)\n\t\tclose(ch)\n\t\tb.mu.Unlock()\n\t}\n}\n\n// close ends"),
    ("L6", REGISTRY, "registry.get: unlocks only on a hit",
     "\tg.mu.Lock()\n\tdefer g.mu.Unlock()\n\tif r := g.runs[id]; r != nil {\n\t\treturn r, false\n\t}\n",
     "\tg.mu.Lock()\n\tif r := g.runs[id]; r != nil {\n\t\tg.mu.Unlock()\n\t\treturn r, false\n\t}\n"),
    ("L7", METRICS, "Registry.register: duplicate panic leaves the lock held",
     "\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tif _, dup := r.byName[m.name]; dup {\n\t\tpanic(\"metrics: duplicate metric \" + m.name)\n\t}\n\tr.byName[m.name] = m\n\tr.order = append(r.order, m)\n",
     "\tr.mu.Lock()\n\tif _, dup := r.byName[m.name]; dup {\n\t\tpanic(\"metrics: duplicate metric \" + m.name)\n\t}\n\tr.byName[m.name] = m\n\tr.order = append(r.order, m)\n\tr.mu.Unlock()\n"),
    ("L8", METRICS, "Registry.Snapshot: histogram case leaves h.mu held",
     "\t\t\tmv.Count = h.n\n\t\t\th.mu.Unlock()\n",
     "\t\t\tmv.Count = h.n\n"),

    # A: a mutex taken again by the goroutine that holds it.
    ("A1", SERVER, "Server.runStatus: reads the state through Run.State",
     "\t\tState:     run.state,\n",
     "\t\tState:     run.State(),\n"),
    ("A2", REGISTRY, "registry.list: sizes its result through counts",
     "\tout := make([]*Run, 0, len(g.runs))\n",
     "\tn, _ := g.counts()\n\tout := make([]*Run, 0, n)\n"),
    ("A3", POOL, "MachinePool.Release: bounds the pool through Stats",
     "\tfor len(mp.idle) > mp.cap {\n",
     "\tfor mp.Stats().Idle > mp.cap {\n"),
    ("A4", SSE, "broadcaster.close: closes each subscriber through unsubscribe",
     "\tfor ch := range b.subs {\n\t\tdelete(b.subs, ch)\n\t\tclose(ch)\n\t}\n\tb.mu.Unlock()\n}\n\n// droppedEvents",
     "\tfor ch := range b.subs {\n\t\tb.unsubscribe(ch)\n\t}\n\tb.mu.Unlock()\n}\n\n// droppedEvents"),
    ("A5", METRICS, "Histogram.Observe: locks twice",
     "func (h *Histogram) Observe(v float64) {\n\th.mu.Lock()\n",
     "func (h *Histogram) Observe(v float64) {\n\th.mu.Lock()\n\th.mu.Lock()\n"),
    ("A6", EXECUTOR, "Server.finishRun: Lock where Unlock was meant",
     "\t\ts.simAgg = metrics.Merge(s.simAgg, runMetrics)\n\t\ts.aggMu.Unlock()\n",
     "\t\ts.simAgg = metrics.Merge(s.simAgg, runMetrics)\n\t\ts.aggMu.Lock()\n"),

    # B: an operation that can wait without bound, run under a lock.
    ("B1", SSE, "broadcaster.publish: blocking send to a subscriber",
     "\t\tselect {\n\t\tcase ch <- ev:\n\t\tdefault:\n\t\t\tb.dropped++\n\t\t}\n",
     "\t\tch <- ev\n"),
    ("B2", SERVER, "Server.handleSubmit: blocking enqueue under closedMu",
     "\tselect {\n\tcase s.queue <- run:\n\t\ts.closedMu.Unlock()\n\tdefault:\n\t\ts.closedMu.Unlock()\n\t\ts.finishRun(run, nil, nil, nil, errors.New(\"submission queue full\"))\n\t\twriteError(w, http.StatusServiceUnavailable, \"queue_full\",\n\t\t\tfmt.Sprintf(\"submission queue is full (%d pending)\", s.opts.QueueDepth))\n\t\treturn\n\t}\n",
     "\ts.queue <- run\n\ts.closedMu.Unlock()\n"),
    ("B3", SERVER, "Server.Close: WaitGroup.Wait under closedMu",
     "\ts.closed = true\n\ts.closedMu.Unlock()\n\tif already {\n\t\treturn\n\t}\n\tclose(s.queue)\n\ts.wg.Wait()\n",
     "\ts.closed = true\n\tif already {\n\t\ts.closedMu.Unlock()\n\t\treturn\n\t}\n\tclose(s.queue)\n\ts.wg.Wait()\n\ts.closedMu.Unlock()\n"),
    ("B4", EXECUTOR, "Server.execute: Machine.Run (via RunOn) under run.mu",
     "\tres, err := run.Spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})\n",
     "\trun.mu.Lock()\n\tres, err := run.Spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})\n\trun.mu.Unlock()\n"),
    ("B5", SERVER, "Server.handleSubmit: writes the 503 under closedMu",
     "\t\ts.closedMu.Unlock()\n\t\twriteError(w, http.StatusServiceUnavailable, \"shutting_down\", \"server is shutting down\")\n",
     "\t\twriteError(w, http.StatusServiceUnavailable, \"shutting_down\", \"server is shutting down\")\n\t\ts.closedMu.Unlock()\n"),
    ("B6", SERVER, "Server.handleMetrics: writes the exposition under aggMu",
     "\tsim := s.simAgg\n\ts.aggMu.Unlock()\n\tsnap := metrics.Merge(s.met.reg.Snapshot(), sim)\n\tw.Header().Set(\"Content-Type\", promContentType)\n\t_ = snap.WritePrometheus(w)\n",
     "\tsim := s.simAgg\n\tsnap := metrics.Merge(s.met.reg.Snapshot(), sim)\n\tw.Header().Set(\"Content-Type\", promContentType)\n\t_ = snap.WritePrometheus(w)\n\ts.aggMu.Unlock()\n"),

    # G: a goroutine that never returns.
    ("G1", SERVER, "New: a goroutine parked forever",
     "\ts.routes()\n\ts.wg.Add(opts.Workers)\n",
     "\ts.routes()\n\tgo func() { select {} }()\n\ts.wg.Add(opts.Workers)\n"),
    ("G2", EXECUTOR, "Server.worker: loops on after the queue closes",
     "\tfor run := range s.queue {\n\t\ts.execute(run)\n\t}\n",
     "\tfor {\n\t\tif run, ok := <-s.queue; ok {\n\t\t\ts.execute(run)\n\t\t}\n\t}\n"),
    ("G3", VMLOAD, "drive: a submitter parks instead of returning",
     "\t\t\t\tif i >= int64(total) {\n\t\t\t\t\treturn\n\t\t\t\t}\n",
     "\t\t\t\tif i >= int64(total) {\n\t\t\t\t\tselect {}\n\t\t\t\t}\n"),
    ("G4", VMPRIMD, "run: the API listener goroutine serves forever",
     "\tgo func() { errCh <- httpSrv.Serve(ln) }()\n",
     "\tgo func() {\n\t\tfor {\n\t\t\terrCh <- httpSrv.Serve(ln)\n\t\t}\n\t}()\n"),
    ("G5", SERVER, "New: a runtime-metrics refresher on a ticker",
     "\ts.routes()\n\ts.wg.Add(opts.Workers)\n",
     "\ts.routes()\n\tgo func() {\n\t\tfor range time.Tick(time.Second) {\n\t\t\ts.met.goRuntime.refresh()\n\t\t}\n\t}()\n\ts.wg.Add(opts.Workers)\n"),
    ("G6", VMLOAD, "main: the in-process listener goroutine serves forever",
     "\t\tgo hs.Serve(ln)\n",
     "\t\tgo func() {\n\t\t\tfor {\n\t\t\t\t_ = hs.Serve(ln)\n\t\t\t}\n\t\t}()\n"),

    # C: a channel closed twice, or once per iteration.
    ("C1", REGISTRY, "Run.complete: closes done twice",
     "\tr.bcast.close()\n\tclose(r.done)\n",
     "\tr.bcast.close()\n\tclose(r.done)\n\tclose(r.done)\n"),
    ("C2", SERVER, "Server.Close: no guard against a second Close",
     "\tif already {\n\t\treturn\n\t}\n\tclose(s.queue)\n",
     "\t_ = already\n\tclose(s.queue)\n"),
    ("C3", SSE, "broadcaster.close: closes without removing the subscriber",
     "\tfor ch := range b.subs {\n\t\tdelete(b.subs, ch)\n\t\tclose(ch)\n\t}\n\tb.mu.Unlock()\n}\n\n// droppedEvents",
     "\tfor ch := range b.subs {\n\t\tclose(ch)\n\t}\n\tb.mu.Unlock()\n}\n\n// droppedEvents"),
    ("C4", SSE, "broadcaster.unsubscribe: closes whether or not subscribed",
     "\tif _, ok := b.subs[ch]; ok {\n\t\tdelete(b.subs, ch)\n\t\tclose(ch)\n\t}\n",
     "\tdelete(b.subs, ch)\n\tclose(ch)\n"),
    ("C5", SERVER, "Server.Close: closes the queue once per worker",
     "\tclose(s.queue)\n\ts.wg.Wait()\n",
     "\tfor i := 0; i < s.opts.Workers; i++ {\n\t\tclose(s.queue)\n\t}\n\ts.wg.Wait()\n"),
    ("C6", SERVER, "Server.handleSubmit: queue-full path closes done after finishRun",
     "\t\ts.finishRun(run, nil, nil, nil, errors.New(\"submission queue full\"))\n",
     "\t\ts.finishRun(run, nil, nil, nil, errors.New(\"submission queue full\"))\n\t\tclose(run.done)\n"),

    # S: a send on a channel that may be closed, or a receiver that
    # closes.
    ("S1", SSE, "broadcaster.unsubscribe: closes without delete",
     "\t\tdelete(b.subs, ch)\n\t\tclose(ch)\n\t}\n\tb.mu.Unlock()\n}\n\n// close ends",
     "\t\tclose(ch)\n\t}\n\tb.mu.Unlock()\n}\n\n// close ends"),
    ("S2", SSE, "handleEvents: the receiver closes its live channel",
     "\t\tdefer run.bcast.unsubscribe(live)\n",
     "\t\tdefer close(live)\n"),
    ("S3", SERVER, "Server.handleSubmit: enqueues without the closed check",
     "\tif s.closed {\n\t\ts.closedMu.Unlock()\n\t\twriteError(w, http.StatusServiceUnavailable, \"shutting_down\", \"server is shutting down\")\n\t\treturn\n\t}\n",
     ""),
    ("S4", SSE, "broadcaster.publish: closes a slow subscriber it keeps",
     "\t\tdefault:\n\t\t\tb.dropped++\n",
     "\t\tdefault:\n\t\t\tb.dropped++\n\t\t\tclose(ch)\n"),
    ("S5", VMPRIMD, "run: the signal receiver closes the signal channel",
     "\tcase s := <-sig:\n",
     "\tcase s := <-sig:\n\t\tclose(sig)\n"),
    ("S6", EXECUTOR, "Server.worker: the receiver closes the queue",
     "\tfor run := range s.queue {\n\t\ts.execute(run)\n\t}\n",
     "\tfor run := range s.queue {\n\t\ts.execute(run)\n\t}\n\tclose(s.queue)\n"),

    # K: a go closure in a loop reading a variable the loop keeps
    # writing, or a variable hoisted out of the loop.
    ("K1", VMLOAD, "drive: the loop counter, hoisted, read by the submitter",
     "\tfor w := 0; w < conc; w++ {\n",
     "\tvar w int\n\tfor w = 0; w < conc; w++ {\n"),
    ("K2", VMLOAD, "drive: the run index hoisted out of the submitters",
     "\tfor w := 0; w < conc; w++ {\n\t\twg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n\t\t\tfor {\n\t\t\t\ti := next.Add(1) - 1\n",
     "\tvar i int64\n\tfor w := 0; w < conc; w++ {\n\t\twg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n\t\t\tfor {\n\t\t\t\ti = next.Add(1) - 1\n"),
    ("K3", VMLOAD, "drive: the latency and error hoisted out of the submitters",
     "\tfor w := 0; w < conc; w++ {\n\t\twg.Add(1)\n",
     "\tvar lat float64\n\tvar err error\n\tfor w := 0; w < conc; w++ {\n\t\twg.Add(1)\n"),
    ("K4", VMLOAD, "drive: a client per worker, written by the loop",
     "\tfor w := 0; w < conc; w++ {\n\t\twg.Add(1)\n",
     "\tfor w := 0; w < conc; w++ {\n\t\tclient = &http.Client{Timeout: 5 * time.Minute}\n\t\twg.Add(1)\n"),
    ("K5", POOL, "MachinePool.Close: closes in goroutines over a hoisted variable",
     "\tfor _, m := range idle {\n\t\tm.Close()\n\t}\n",
     "\tvar m *Machine\n\tfor _, m = range idle {\n\t\tgo func() { m.Close() }()\n\t}\n"),
    ("K6", POOL, "MachinePool.Release: closes evictions in goroutines over a loop-written variable",
     "\tfor _, em := range evicted {\n\t\tem.Close()\n\t}\n",
     "\tvar cur *Machine\n\tfor _, em := range evicted {\n\t\tcur = em\n\t\tgo func() { cur.Close() }()\n\t}\n"),

    # E: a Run that fails leaves the slab as the failure left it.
    ("E1", MACHINE, "Machine.Run: EndRun only after a Run nobody aborted",
     "\t\tif pr.local != nil {\n\t\t\tpr.local.EndRun()\n",
     "\t\tif pr.local != nil && !e.aborted {\n\t\t\tpr.local.EndRun()\n"),
    ("E2", MACHINE, "Proc.runBody: each processor ends its own Run when its body returns",
     "\te.body(p)\n\tp.checkSpansClosed()\n",
     "\te.body(p)\n\tp.checkSpansClosed()\n\tif p.local != nil {\n\t\tp.local.EndRun()\n\t}\n"),

    # R: a rewound header still points at the last Run's storage.
    ("R1", CORE, "runSlab.EndRun: rewinds the slots without zeroing them",
     "func (s *runSlab) EndRun() { s.release(Mark{}) }\n",
     "func (s *runSlab) EndRun() {\n\ts.envs.n, s.vecs.n, s.mats.n = 0, 0, 0\n\ts.p.RewindScratch(0)\n}\n"),
    ("R2", CORE, "runSlab.EndRun: rewinds the vector headers without zeroing them",
     "func (s *runSlab) EndRun() { s.release(Mark{}) }\n",
     "func (s *runSlab) EndRun() {\n\ts.release(Mark{vecs: s.vecs.n})\n\ts.vecs.n = 0\n}\n"),

    # D: two live objects of one Run share a slot.
    ("D1", CORE, "NewEnv: reuses the processor's last Env of the Run",
     "\te := s.envs.next()\n",
     "\tif s.envs.n > 0 {\n\t\ts.envs.n--\n\t}\n\te := s.envs.next()\n"),
    ("D2", CORE, "slots.next: hands out a slot without taking it",
     "\ts.n++\n\treturn s.all[s.n-1]\n",
     "\treturn s.all[s.n]\n"),

    # U: the slab serves a make past its limit instead of refusing it,
    # so a loop that never releases its steps holds every step's
    # temporaries until the Run ends.
    ("U1", CORE, "slots.next: grows past its limit",
     "\t\tif s.n == s.limit {\n\t\t\tpanic(errSlabFull)\n\t\t}\n",
     ""),

    # X: a spent header is not refused by name.
    ("X1", CORE, "storage.get: serves a spent header from the heap",
     "\tif s.all == nil {\n\t\tpanic(errExpired)\n\t}\n",
     "\tif s.all == nil {\n\t\ts.local = make([]float64, n)\n\t\treturn s.local\n\t}\n"),
    ("X2", CORE, "storage.hostOnly: a spent header is refused as a temporary, not by its lifetime",
     "\tcase s.local == nil:\n\t\treturn errExpired\n",
     ""),

    # M: step scopes (Env.Mark and Env.Release over the slab, and
    # Proc.ScratchMark and RewindScratch over the arena).
    ("M1", CORE, "runSlab.release: skips the scratch rewind",
     "\ts.p.RewindScratch(m.scratch)\n",
     ""),
    ("M2", CORE, "Env.Release: rewinds the slots but leaves their headers unspent",
     "func (e *Env) Release(m Mark) { e.slab.release(m) }\n",
     "func (e *Env) Release(m Mark) {\n\ts := e.slab\n\ts.envs.n, s.vecs.n, s.mats.n = m.envs, m.vecs, m.mats\n\te.P.RewindScratch(m.scratch)\n}\n"),
    ("M3", CORE, "Env.Mark: the mark is one vector slot late",
     "\treturn Mark{s.envs.n, s.vecs.n, s.mats.n, e.P.ScratchMark()}\n",
     "\treturn Mark{s.envs.n, s.vecs.n + 1, s.mats.n, e.P.ScratchMark()}\n"),
    ("M4", CORE, "Env.Mark: the mark is one matrix slot early",
     "\treturn Mark{s.envs.n, s.vecs.n, s.mats.n, e.P.ScratchMark()}\n",
     "\treturn Mark{s.envs.n, s.vecs.n, max(s.mats.n-1, 0), e.P.ScratchMark()}\n"),
    ("M5", MACHINE, "Machine.endScratch: grows the arena from the end offset, not the peak",
     "\t\tneed = max(need, pr.scratchPeak, pr.scratchOff)\n",
     "\t\tneed = max(need, pr.scratchOff)\n"),
    ("M6", MACHINE, "Proc.RewindScratch: poisons nothing it gives back",
     "\t\tp.m.scratchDone(a.words[base+mark : base+min(p.scratchOff, a.region)])\n",
     "\t\t_ = base\n"),

    # Z: the scratch arena that backs the slab-held headers' storage.
    ("Z1", MACHINE, "Machine.endScratch: the arena stays pinned between Runs",
     "\t\tm.newArena()\n\t}\n}\n",
     "\t\tm.newArena()\n\t}\n\tm.arena = m.weakArena.Value()\n}\n"),
    ("Z2", MACHINE, "Machine.endScratch: a failed Run leaves the regions' offsets",
     "\t\tpr.scratchOff, pr.scratchPeak = 0, 0\n",
     "\t\tif !m.eng.aborted {\n\t\t\tpr.scratchOff, pr.scratchPeak = 0, 0\n\t\t}\n"),
    ("Z3", MACHINE, "Proc.Scratch: hands out words without zeroing them",
     "\tclear(s)\n\treturn s\n",
     "\treturn s\n"),
    ("Z4", MACHINE, "Proc.Scratch: two processors' regions overlap",
     "\tbase := p.id*a.region + off\n",
     "\tbase := p.id*a.region/2 + off\n"),
    ("Z5", MACHINE, "Machine.Run: the arena is held from the Run's first Scratch, not its start",
     "\tm.arena = m.weakArena.Value()\n\te := m.eng\n",
     "\te := m.eng\n"),

    # Q: the machine-level route: the rendezvous (Proc.Meet), the
    # pairwise phase edge (RoutePair) and the router's phase loop that
    # drives it, which must charge, count and record each phase exactly
    # as its two messages would have.
    ("Q1", ROUTE, "RoutePair: a pair's receives take the arrival times from before both sends",
     "\tna, nb := a.routeSend(i, sa), b.routeSend(i, sb)\n\tta, tb := a.clock, b.clock\n",
     "\tta, tb := a.clock, b.clock\n\tna, nb := a.routeSend(i, sa), b.routeSend(i, sb)\n"),
    ("Q2", ROUTE, "routeRecv: a chain is adopted on a tie",
     "\tif arrive > p.clock {\n",
     "\tif arrive >= p.clock {\n"),
    ("Q3", ROUTE, "routeSend: the phase's link load is not booked",
     "\tp.noteSend(d, s.Tag, n, p.clock)\n",
     "\tp.noteSend(d, s.Tag, n, p.clock)\n\tp.linkWords[d] -= int64(n)\n"),
    ("Q4", ROUTE, "routeSend: the phase's message is left out of the size histogram",
     "\tp.noteSend(d, s.Tag, n, p.clock)\n",
     "\tp.noteSend(d, s.Tag, n, p.clock)\n\tp.msgHist[msgBin(n)]--\n"),
    ("Q5", ROUTE, "routeRecv: the flight recorder's receive is dropped",
     "\tp.record(flightrec.KindRecv, flightrec.NoLabel, d, tag, n, p.clock)\n",
     ""),
    ("Q6", ROUTER, "phases: each low address runs all its phases before the next, so phase i+1 starts before phase i's last pair",
     "\tfor i, bit := 0, 1; bit < len(procs); i, bit = i+1, bit<<1 {\n\t\tfor a, pa := range procs {\n",
     "\tfor a, pa := range procs {\n\t\tfor i, bit := 0, 1; bit < len(procs); i, bit = i+1, bit<<1 {\n"),
    ("Q7", ROUTE, "Meet: processor 0 is left unreadied",
     "\t\t\tif pr.meet == meetParked {\n",
     "\t\t\tif pr.meet == meetParked && pid != 0 {\n"),
    ("Q8", ROUTE, "routeMismatch: a message left on a link before the route goes unnoticed",
     "p.m.store.inUse > 0 && !l.empty()",
     "false && !l.empty()"),

    # J: the embedding changes (Realign, TransposeInto), whose sender
    # reads each element's destination and destination-local offset
    # from per-call tables over the valid prefix of its piece or block.
    ("J1", REMAP, "TransposeInto: the row and column tables take each other's grid field",
     "float64(dst.G.Cols().Place(dst.CMap.CoordOf(gi)))",
     "float64(dst.G.Rows().Place(dst.CMap.CoordOf(gi)))"),
    ("J2", REMAP, "validPrefix: the cyclic stride is dropped",
     "\treturn n, g0, m.GlobalStride()\n",
     "\treturn n, g0, 1\n"),
    ("J3", REMAP, "validPrefix: the valid prefix loses its last slot",
     "\tif n = m.ValidCount(c); n > 0 {\n",
     "\tif n = max(m.ValidCount(c)-1, 0); n > 0 {\n"),
    ("J4", REMAP, "validPrefix: the first global index is looked up with no slot to look in",
     "\tif n = m.ValidCount(c); n > 0 {\n\t\tg0 = m.GlobalOf(c, 0)\n\t}\n",
     "\tn = m.ValidCount(c)\n\tg0 = m.GlobalOf(c, 0)\n"),
    ("J5", REMAP, "Realign: an element is keyed by its offset in the source piece",
     "float64(out.Map.LocalOf(g))",
     "float64(v.Map.LocalOf(g))"),

    # V: the router's held wires: two lanes per processor, used in
    # alternation by its route count, a batch written into the wire of
    # the route before last and a merged run behind its own route's
    # wire, pinned while a Run is in flight and held only weakly
    # between Runs; and the one caller that kept payloads past its Run.
    ("V1", ROUTER, "take: a batch takes the wire of the latest route, not of the route before last",
     "\tl := &s.lanes()[s.routes&1]\n\tif len(l.wire) < n {\n",
     "\tl := &s.lanes()[(s.routes+1)&1]\n\tif len(l.wire) < n {\n"),
    ("V2", MACHINE, "Machine.Run: the router's slot is not ended, so its wires stay held strongly between Runs",
     "\t\tif l, ok := pr.met.(RunLocal); ok {\n\t\t\tl.EndRun()\n\t\t}\n",
     ""),
    ("V3", ROUTER, "lanes: the lanes are not pinned, so only the weak pointer holds them during a Run",
     "\treturn s.held\n}\n",
     "\th := s.held\n\ts.held = nil\n\treturn h\n}\n"),
    ("V4", TRIDIAG, "SolveTridiagBatch: the gathered solutions are kept as routed payloads, not copied out",
     "\t\t\tcopy(results[si], x)\n",
     "\t\t\tresults[si] = x\n"),
    ("V5", ROUTER, "carve: a merged run is written into the other lane",
     "\tl := s.last()\n\tif l.used+n > len(l.wire) {\n",
     "\tl := &s.lanes()[s.routes&1]\n\tif l.used+n > len(l.wire) {\n"),

    # H: Env.LoadDense, LoadSlice, StoreDense and StoreSlice, which
    # stage a driver's operands inside its one Run and land its result,
    # at no simulated cost, with the walks FromDense, ToDense and
    # ToSlice use (the matrix walk over a column window, so [A | b]
    # stages from A and b and X lands from [A | X]'s trailing columns);
    # and the forward-elimination step GaussKernel, EliminateMulti and
    # Determinant share.
    ("H1", HOSTIO, "Env.LoadDense: stages the next grid row's rows (wrong block-row offset)",
     "\t\ta.copyBlock(blocks[k], j0, e.GridRow(), e.GridCol(), true)\n",
     "\t\ta.copyBlock(blocks[k], j0, (e.GridRow()+1)%e.G.PRows(), e.GridCol(), true)\n"),
    ("H2", HOSTIO, "Env.LoadDense: stages the next grid column's piece of each row",
     "\t\ta.copyBlock(blocks[k], j0, e.GridRow(), e.GridCol(), true)\n",
     "\t\ta.copyBlock(blocks[k], j0, e.GridRow(), (e.GridCol()+1)%e.G.PCols(), true)\n"),
    ("H3", HOSTIO, "Matrix.copyBlock: copies the block's padding rows too",
     "\tfor lr := 0; lr < nr; lr++ {\n\t\tlocal :=",
     "\tfor lr := 0; lr < a.RMap.B; lr++ {\n\t\tlocal :="),
    ("H4", HOSTIO, "Env.StoreSlice: writes each piece from its last holder, not holder(c, 0)",
     "\tif pid != v.holder(c, 0) {\n",
     "\tif pid != v.holder(c, v.copies()-1) {\n"),
    ("H5", HOSTIO, "Env.LoadDense: charges a Compute per staged word",
     ", true)\n\t}\n\treturn a\n}\n",
     ", true)\n\t}\n\te.P.Compute(len(a.L(e.P.ID())))\n\treturn a\n}\n"),
    ("H6", HOSTIO, "Env.LoadSlice: a processor off the vector's home fills a piece too",
     "\tif !v.HoldsData(pid) {\n\t\treturn v\n\t}\n",
     ""),
    ("H7", HOSTIO, "Env.StoreDense: writes the next grid row's block",
     "\ta.copyBlock(dst, j0, e.GridRow(), e.GridCol(), false)\n",
     "\ta.copyBlock(dst, j0, (e.GridRow()+1)%e.G.PRows(), e.GridCol(), false)\n"),
    ("H8", HOSTIO, "Matrix.copyBlock: a store (StoreDense, ToDense) writes the block's padding rows too",
     "\tfor lr := 0; lr < nr; lr++ {\n\t\tlocal :=",
     "\tfor lr := 0; lr < nr || !load && lr < a.RMap.B; lr++ {\n\t\tlocal :="),
    ("H9", GAUSS, "forwardEliminate: a row swap does not flip the determinant's sign",
     "\t\tif piv != k {\n\t\t\tdet = -det\n\t\t}\n",
     "\t\t_ = piv\n"),
    ("H10", HOSTIO, "Env.LoadDense: every column block after the first is staged one column off",
     "j0, k = j0+blocks[k].C, k+1 {\n",
     "j0, k = j0+blocks[k].C-1, k+1 {\n"),
    ("H11", HOSTIO, "Env.StoreDense: reads the window from column 0 instead of j0",
     "\ta.copyBlock(dst, j0, e.GridRow(), e.GridCol(), false)\n",
     "\ta.copyBlock(dst, 0, e.GridRow(), e.GridCol(), false)\n"),
    ("H12", HOSTIO, "Matrix.copyBlock: a window's last column is left out",
     "\tl0, l1 := a.CMap.LocalRange(gc, j0, j0+dm.C)\n",
     "\tl0, l1 := a.CMap.LocalRange(gc, j0, j0+max(dm.C-1, 0))\n"),

    # N: a span closed on the main path only, or at the wrong point.
    # The defer becomes an inline EndSpan at the last exit (EXTRA), so
    # an early return skips it; an inline EndSpan moves past, or into, a
    # branch; a loop's span is closed by a defer, or left by a break.
    ("N1", COLL, "BcastLarge: EndSpan inline at the end, the k == 0 return skips it",
     "\tp.BeginSpan(\"bcast-large\")\n\tdefer p.EndSpan()\n",
     "\tp.BeginSpan(\"bcast-large\")\n"),
    ("N2", COLL, "Gather: EndSpan inline at the end, the sender's return skips it",
     "\tp.BeginSpan(\"gather\")\n\tdefer p.EndSpan()\n",
     "\tp.BeginSpan(\"gather\")\n"),
    ("N3", COLL, "Bcast: EndSpan inline at the end, the root's r == 0 return skips it",
     "\tp.BeginSpan(\"bcast\")\n\tdefer p.EndSpan()\n",
     "\tp.BeginSpan(\"bcast\")\n"),
    ("N4", EXTRACT, "Env.SwapRows: EndSpan inline at the end, the i1 == i2 return skips it",
     "\te.BeginSpan(\"swap-rows\")\n\tdefer e.EndSpan()\n",
     "\te.BeginSpan(\"swap-rows\")\n"),
    ("N5", VECOPS, "Env.ScanVec: EndSpan inline at the end, the non-holder and mask == 0 returns skip it",
     "\te.BeginSpan(\"scan-vec\")\n\tdefer e.EndSpan()\n",
     "\te.BeginSpan(\"scan-vec\")\n"),
    ("N6", SIMPLEX, "simplexLoop: the unbounded return leaves the ratio-test span open",
     "\t\te.EndSpan()\n\t\tif ir < 0 {\n\t\t\treturn serial.Unbounded, e.ElemAt(t, m, rhs), iters, basis\n\t\t}\n",
     "\t\tif ir < 0 {\n\t\t\treturn serial.Unbounded, e.ElemAt(t, m, rhs), iters, basis\n\t\t}\n\t\te.EndSpan()\n"),
    ("N7", SIMPLEX, "simplexLoop: pricing closes its span on the Dantzig branch only",
     "\t\t\tif jc >= 0 && val >= -simplexEps {\n\t\t\t\tjc = -1\n\t\t\t}\n\t\t}\n\t\te.EndSpan()\n",
     "\t\t\tif jc >= 0 && val >= -simplexEps {\n\t\t\t\tjc = -1\n\t\t\t}\n\t\t\te.EndSpan()\n\t\t}\n"),
    ("N8", GAUSS, "forwardEliminate: the eliminate span is closed by a defer inside the step loop",
     "\t\te.BeginSpan(\"eliminate\")\n",
     "\t\te.BeginSpan(\"eliminate\")\n\t\tdefer e.EndSpan()\n"),
    ("N9", CG, "SolveCG: a converged iteration breaks out of the loop inside its last update span",
     "\t\t\tresid = e.Norm2Vec(r)\n\t\t\te.EndSpan()\n",
     "\t\t\tresid = e.Norm2Vec(r)\n\t\t\tif resid <= opts.Tol {\n\t\t\t\te.Release(step)\n"
     "\t\t\t\titers++\n\t\t\t\tbreak\n\t\t\t}\n\t\t\te.EndSpan()\n"),

    # I: processors disagree on which collectives run, or on how an
    # operation pairs them.
    ("I1", REDUCE, "Env.AllReduceRowsPiece: the mask drops dimension 0 on odd processors",
     "e.G.RowMask(), e.NextTag2(), piece",
     "e.G.RowMask()&^(e.P.ID()&1), e.NextTag2(), piece"),
    ("I2", VECOPS, "Env.DotVec: only processor 0 joins the all-reduce",
     "\treturn e.allReduceScalar(acc, collective.Sum)\n",
     "\tif pid != 0 {\n\t\treturn acc\n\t}\n\treturn e.allReduceScalar(acc, collective.Sum)\n"),
    ("I3", EXTRACT, "Env.sendAlong: the relay's Send dimension depends on the sender's ID",
     "\t\t\t\te.P.Send(d, tag, buf)\n",
     "\t\t\t\te.P.Send(d^(e.P.ID()&1), tag, buf)\n"),
    ("I4", CG, "SolveCG: only processors other than 0 compute the residual norm",
     "\t\t\tresid = e.Norm2Vec(r)\n",
     "\t\t\tif p.ID() != 0 {\n\t\t\t\tresid = e.Norm2Vec(r)\n\t\t\t}\n"),
    ("I5", SIMPLEX, "simplexLoop: processor 1 stops before the first pivot",
     "\t\tif jc < 0 {\n\t\t\treturn serial.Optimal",
     "\t\tif jc < 0 || e.P.ID() == 1 {\n\t\t\treturn serial.Optimal"),
    ("I6", CG, "SolveCG: odd processors allow one more iteration",
     "\t\tfor iters < opts.MaxIter && resid > opts.Tol {\n",
     "\t\tfor iters < opts.MaxIter+p.ID()%2 && resid > opts.Tol {\n"),
    ("I7", COLL, "AllReduce: the recursive-doubling Exchange dimension depends on the ID",
     "got := p.Exchange(ds[i], subTag(tag, i), acc)",
     "got := p.Exchange(ds[(i+p.ID()&1)%len(ds)], subTag(tag, i), acc)"),

    # P: a buffer taken from the pool (GetBuf, Exchange, or a
    # collective's result) that is never handed back.
    ("P1", REDUCE, "Env.allReduceScalar: the GetBuf payload is not recycled",
     "\tout := res[0]\n\te.P.Recycle(res)\n\te.P.Recycle(buf)\n",
     "\tout := res[0]\n\te.P.Recycle(res)\n"),
    ("P2", REDUCE, "Env.allReducePair: the all-reduce's result is not recycled",
     "\tv, i := res[0], res[1]\n\te.P.Recycle(res)\n",
     "\tv, i := res[0], res[1]\n"),
    ("P3", VECOPS, "Env.ScanVec: the one-word GetBuf of the piece total is not recycled",
     "\te.P.Recycle(totals)\n\te.P.Recycle(tbuf)\n",
     "\te.P.Recycle(totals)\n"),
    ("P4", COLL, "ReduceScatter: each round's Exchange result is not recycled",
     "\t\tp.Recycle(got)\n\t\tcur = keep\n",
     "\t\tcur = keep\n"),
    ("P5", COLL, "scan: the running total's GetBuf is not recycled",
     "\t\tp.Recycle(got)\n\t}\n\tp.Recycle(total)\n\treturn prefix\n",
     "\t\tp.Recycle(got)\n\t}\n\treturn prefix\n"),
    ("P6", EXTRACT, "Env.extract: the replicated branch keeps the broadcast's result",
     "\t\tcopy(dst.L(pid), got)\n\t\te.P.Recycle(got)\n\tcase owner:",
     "\t\tcopy(dst.L(pid), got)\n\tcase owner:"),
    ("P7", MATVEC, "vecMatFused: the partial-sum piece is not recycled",
     "\tcopy(out.L(pid), sum)\n\te.P.Recycle(sum)\n\te.P.Recycle(piece)\n\treturn out\n",
     "\tcopy(out.L(pid), sum)\n\te.P.Recycle(sum)\n\treturn out\n"),

    # T: the tag a caller hands a call disagrees, between processors
    # or with the tags the callee takes, so a later message can pair
    # with the wrong receive: one tag reserved where the callee uses
    # two, a tag derived from the ID, or a tag counter advanced on some
    # processors only.
    ("T1", SPREAD, "Env.DistributePiece: BcastLarge, which also uses tag+1, gets one tag",
     "collective.BcastLarge(e.P, mask, e.NextTag2(), root, src)",
     "collective.BcastLarge(e.P, mask, e.NextTag(), root, src)"),
    ("T2", REDUCE, "Env.finishReduce: AllReduce, which may also use tag+1, gets one tag",
     "collective.AllReduce(e.P, mask, e.NextTag2(), piece, op.combiner())",
     "collective.AllReduce(e.P, mask, e.NextTag(), piece, op.combiner())"),
    ("T3", NAIVE, "naiveFetchElems: Request, a round trip on tag and tag+1, gets one tag",
     "want.Request(e.P, e.NextTag2(), func(k int) []float64 {",
     "want.Request(e.P, e.NextTag(), func(k int) []float64 {"),
    ("T4", REDUCE, "Env.allReduceScalar: the all-reduce's tag depends on the ID",
     "\tbuf[0] = x\n\tres := collective.AllReduce(e.P, e.P.FullMask(), e.NextTag(), buf, comb)\n",
     "\tbuf[0] = x\n\tres := collective.AllReduce(e.P, e.P.FullMask(), e.NextTag()+e.P.ID()&1, buf, comb)\n"),
    ("T5", VECOPS, "Env.ScanVec: the tag is reserved after the non-holders' early return",
     "\ttag := e.NextTag()\n\t//lint:allow collorder",
     "\t//lint:allow collorder"),
    ("T6", LU, "LU.Solve: the owner of x[k] takes one more tag before the broadcast",
     "\t\t\txk := e.BcastWord(owner, quot)\n",
     "\t\t\tif e.P.ID() == owner {\n\t\t\t\te.NextTag()\n\t\t\t}\n"
     "\t\t\txk := e.BcastWord(owner, quot)\n"),

    # W: host time read or waited on in the simulation packages; the
    # import is the second edit (EXTRA).
    ("W1", MACHINE, "Proc.Compute: the charge adds a wall-clock bit",
     "\tc := p.m.params.FlopCost(flops)\n",
     "\tc := p.m.params.FlopCost(flops) + costmodel.Time(time.Now().UnixNano()%2)\n"),
    ("W2", CG, "SolveCG: a one-minute wall-clock budget on the iteration loop",
     "\t\tfor iters < opts.MaxIter && resid > opts.Tol {\n",
     "\t\tfor start := time.Now(); iters < opts.MaxIter && resid > opts.Tol && time.Since(start) < time.Minute; {\n"),
    ("W3", COLL, "Gather: every member sleeps first so the pieces can arrive",
     "\tp.BeginSpan(\"gather\")\n",
     "\tp.BeginSpan(\"gather\")\n\ttime.Sleep(time.Microsecond)\n"),
    ("W4", VECOPS, "Env.ScanVec: the local fold's flop count adds wall-clock noise",
     "\te.P.Compute(c)\n",
     "\te.P.Compute(c + int(time.Now().UnixNano()%3))\n"),
    ("W5", CG, "SolveCG: the zero-diagonal error carries a timestamp",
     "fmt.Errorf(\"apps: zero diagonal at %d (Jacobi preconditioner)\", i)",
     "fmt.Errorf(\"apps: zero diagonal at %d (Jacobi preconditioner) at %v\", i, time.Now())"),
]

# K1 must read w inside the closure and K3 must assign the hoisted
# variables there: both need a second edit in the submitter's body.
EXTRA = {
    "K1": ("firstErr.CompareAndSwap(nil, fmt.Errorf(\"run %d: %w\", i, err))",
           "firstErr.CompareAndSwap(nil, fmt.Errorf(\"worker %d run %d: %w\", w, i, err))"),
    "K3": ("\t\t\t\tlat, err := submitOne(client, base, spec)\n",
           "\t\t\t\tlat, err = submitOne(client, base, spec)\n"),
    # E2 moves EndRun into the body's success path: Run's own call goes.
    # Z5's Scratch looks the arena up itself, as it did before Run held it.
    # J1 swaps the other table's field as well.
    "J1": ("float64(dst.G.Rows().Place(dst.RMap.CoordOf(gj)))",
           "float64(dst.G.Cols().Place(dst.RMap.CoordOf(gj)))"),
    "Z5": ("\t\ta = p.m.newArena()\n\t\tp.m.arena = a\n",
           "\t\tif a = p.m.weakArena.Value(); a == nil {\n\t\t\ta = p.m.newArena()\n\t\t}\n\t\tp.m.arena = a\n"),
    "E2": ("\t\tif pr.local != nil {\n\t\t\tpr.local.EndRun()\n\t\t}\n", ""),
    # N1-N5 close the span inline before the function's last return;
    # N8's defer replaces the inline EndSpan.
    "N1": ("\tp.Recycle(piece)\n\treturn out\n}", "\tp.Recycle(piece)\n\tp.EndSpan()\n\treturn out\n}"),
    "N2": ("\tp.Recycle(buf)\n\treturn out\n}\n\n// Scatter distributes",
           "\tp.Recycle(buf)\n\tp.EndSpan()\n\treturn out\n}\n\n// Scatter distributes"),
    "N3": ("\t\treturn cp\n\t}\n\treturn buf\n}", "\t\treturn cp\n\t}\n\tp.EndSpan()\n\treturn buf\n}"),
    "N4": ("\te.Release(step)\n}", "\te.Release(step)\n\te.EndSpan()\n}"),
    "N5": ("\t\te.P.Compute(v.Map.B)\n\t}\n\treturn out\n}",
           "\t\te.P.Compute(v.Map.B)\n\t}\n\te.EndSpan()\n\treturn out\n}"),
    "N8": ("\t\te.EndSpan()\n\t\te.Release(step)\n\t\tdet *= pivot\n", "\t\te.Release(step)\n\t\tdet *= pivot\n"),
    # T5 takes the tag after the early return instead.
    "T5": ("\tpv := out.L(pid)\n\tc := deal.Coord(pid)\n",
           "\ttag := e.NextTag()\n\tpv := out.L(pid)\n\tc := deal.Coord(pid)\n"),
    # W1-W5 import time.
    "W1": ("\t\"runtime\"\n", "\t\"runtime\"\n\t\"time\"\n"),
    "W2": ("\t\"math\"\n", "\t\"math\"\n\t\"time\"\n"),
    "W3": ("import (\n\t\"fmt\"\n", "import (\n\t\"fmt\"\n\t\"time\"\n"),
    "W4": ("\t\"math\"\n", "\t\"math\"\n\t\"time\"\n"),
    "W5": ("\t\"math\"\n", "\t\"math\"\n\t\"time\"\n"),
}

RACE_PKGS = ["./internal/serve/", "./internal/metrics/", "./cmd/vmload/"]


def one_thread(path):
    """Whether path is code a Run executes on its one thread."""
    return path in SLAB or path in (ROUTE, ROUTER) or path.startswith(SPMD)


def other_tests(path):
    """The non-race tests of the mutated file beyond the race set."""
    if path == METRICS:
        return ("go", ["go", "test", "-count=1", "-timeout", "120s",
                       ".", "./cmd/vmprim/", "./internal/bench/", "./internal/hypercube/"])
    if path == POOL:
        return ("go", ["go", "test", "-count=1", "-timeout", "120s", ".", "./internal/hypercube/"])
    if path == VMLOAD:
        return ("smoke", "vmload")
    if path == VMPRIMD:
        return ("smoke", "vmprimd")
    if one_thread(path):
        return ("go", ["go", "test", "-count=1", "-timeout", "300s", "./internal/core/",
                       "./internal/collective/", "./internal/hypercube/", "./internal/apps/",
                       "./internal/bench/", "./internal/obs/", "."] +
                (["./internal/router/"] if path in (ROUTE, ROUTER, MACHINE) else []))
    return None


def sh(cmd, cwd, timeout):
    """Runs cmd, returning (exit status or None on timeout, output)."""
    try:
        p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=timeout, text=True)
        return p.returncode, p.stdout
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return None, out


def summarize_go_test(status, out):
    """One cell: ok, or the failing tests and why."""
    if status is None:
        return "harness timeout"
    if status == 0:
        return "ok"
    if "[build failed]" in out or "[setup failed]" in out:
        return "BUILD FAILED"
    failed = []
    for m in re.finditer(r"--- FAIL: (\S+)", out):
        if m.group(1) not in failed:
            failed.append(m.group(1))
    why = []
    if "WARNING: DATA RACE" in out:
        why.append("data race")
    tm = re.search(r"panic: test timed out after (\S+)\n(?:\s*running tests:\n((?:\s+\S+ \(.*\)\n)+))?", out)
    if tm:
        if tm.group(2):
            running = [l.split()[0] for l in tm.group(2).splitlines()]
        else:  # a fuzz target's seeds: name it from the stacks
            running = sorted(set(re.findall(r"\.((?:Test|Fuzz)\w+)(?:\.func\d+)*\(", out[tm.start():])))
        why.append("timeout %s in %s" % (tm.group(1), ", ".join(running)))
    for m in re.finditer(r"^(?:panic|fatal error): (.+)$", out, re.M):
        msg = m.group(1)
        if msg.startswith("test timed out"):
            continue
        msg = re.sub(r" \[recovered\]$", "", msg)
        why.append("panic: " + msg)
        break
    for m in re.finditer(r"^\s+\S+_test\.go:\d+: (.+)$", out, re.M):
        if not why:
            why.append(m.group(1)[:90])
        break
    cell = ", ".join(failed) if failed else "FAIL"
    if why:
        cell += " (" + "; ".join(why) + ")"
    return cell


def vmlint(tree, binary):
    status, out = sh([binary, "-json", "./..."], tree, 300)
    if status is None:
        return "vmlint timeout"
    try:
        findings = json.loads(out[out.index("["):])
    except ValueError:
        return "vmlint error: " + out.strip().splitlines()[-1][:80] if out.strip() else "vmlint error"
    if not findings:
        return "none"
    # A collorder message quotes sequences with "|" in them, which would
    # split a Markdown table cell.
    return "; ".join("%s `%s:%d`: %s" % (f["analyzer"], os.path.relpath(f["file"], tree), f["line"],
                                        f["message"].replace("|", "\\|"))
                     for f in findings)


def race_tests(tree, log):
    s1, o1 = sh(["go", "test", "-race", "-count=1", "-timeout", "60s"] + RACE_PKGS, tree, 600)
    s2, o2 = sh(["go", "test", "-race", "-count=1", "-timeout", "60s", "-run", "MachinePool",
                 "./internal/hypercube/"], tree, 600)
    log(o1 + o2)
    cells = []
    for (s, o) in ((s1, o1), (s2, o2)):
        c = summarize_go_test(s, o)
        if c != "ok":
            cells.append(c)
    return "; ".join(cells) if cells else "ok"


def smoke_vmload(tree, bindir):
    status, out = sh(["go", "build", "-o", os.path.join(bindir, "vmload"), "./cmd/vmload"], tree, 600)
    if status != 0:
        return "BUILD FAILED"
    outfile = os.path.join(bindir, "vmload.json")
    status, out = sh([os.path.join(bindir, "vmload"), "-runs", "60", "-c", "8", "-out", outfile], tree, 120)
    if status is None:
        return "smoke timeout (120 s)"
    if status != 0:
        return "smoke exit %d" % status
    res = json.load(open(outfile))["results"]
    if res["completed"] != 60 or res["failed"] != 0:
        return "smoke: %d/60 completed" % res["completed"]
    return "ok"


def http_json(url, body=None, timeout=60):
    req = urllib.request.Request(url, data=body.encode() if body else None,
                                 method="POST" if body else "GET")
    with urllib.request.urlopen(req, timeout=timeout) as r:
        data = r.read()
    return json.loads(data) if data[:1] in (b"{", b"[") else data


def smoke_vmprimd(tree, bindir):
    status, out = sh(["go", "build", "-o", os.path.join(bindir, "vmprimd"), "./cmd/vmprimd"], tree, 600)
    if status != 0:
        return "BUILD FAILED"
    addrfile = os.path.join(bindir, "addr")
    if os.path.exists(addrfile):
        os.remove(addrfile)
    log = open(os.path.join(bindir, "vmprimd.log"), "w+")
    p = subprocess.Popen([os.path.join(bindir, "vmprimd"), "-addr", "127.0.0.1:0",
                          "-addr-file", addrfile, "-workers", "1"], stderr=log)
    try:
        for _ in range(100):
            if os.path.exists(addrfile) and os.path.getsize(addrfile) > 0:
                break
            time.sleep(0.1)
        base = "http://" + open(addrfile).read().strip()
        for spec in ('{"exp":"E1"}', '{"exp":"E1","model":"ipsc"}'):
            run_id = http_json(base + "/runs", spec)["id"]
            st = http_json(base + "/runs/%s/wait?timeout=60s" % run_id, timeout=90)
            if st["state"] != "done":
                return "smoke: run ended " + st["state"]
            for doc in ("profile", "trace", "critpath", "metrics"):
                http_json(base + "/runs/%s/%s" % (run_id, doc))
        http_json(base + "/metrics")
        p.send_signal(signal.SIGTERM)
        status = p.wait(timeout=60)
    except subprocess.TimeoutExpired:
        return "smoke: no exit within 60 s of SIGTERM"
    except Exception as e:  # a hung or crashed server answers nothing
        return "smoke: " + str(e)[:80]
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    log.seek(0)
    text = log.read()
    if status != 0:
        m = re.search(r"^panic: (.+)$", text, re.M)
        return "smoke exit %d%s" % (status, " (panic: %s)" % m.group(1) if m else "")
    if "clean shutdown" not in text:
        return "smoke: no clean shutdown line"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", help="source tree to copy (default: HEAD of this repository)")
    ap.add_argument("--only", nargs="*", help="mutant ids to run")
    ap.add_argument("--list", action="store_true", help="print the mutants and exit")
    ap.add_argument("--logs", help="directory to keep each mutant's test output in")
    args = ap.parse_args()
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)

    mutants = [m for m in MUTANTS if not args.only or m[0] in args.only]
    if args.list:
        for mid, path, site, _, _ in mutants:
            print("%s\t%s\t%s\t%s" % (mid, CLASSES[mid[0]], path, site))
        return

    work = tempfile.mkdtemp(prefix="mutants-")
    tree = os.path.join(work, "tree")
    bindir = os.path.join(work, "bin")
    os.mkdir(bindir)
    try:
        if args.tree:
            shutil.copytree(args.tree, tree, ignore=shutil.ignore_patterns(".git"))
        else:
            root = subprocess.check_output(["git", "rev-parse", "--show-toplevel"], text=True).strip()
            os.mkdir(tree)
            archive = subprocess.Popen(["git", "-C", root, "archive", "HEAD"], stdout=subprocess.PIPE)
            subprocess.check_call(["tar", "-x", "-C", tree], stdin=archive.stdout)
            archive.wait()
        lint = os.path.join(bindir, "vmlint")
        subprocess.check_call(["go", "build", "-o", lint, "./cmd/vmlint"], cwd=tree)
        base = vmlint(tree, lint)
        if base != "none":
            sys.exit("the unmutated tree already has vmlint findings (%s)" % base)

        print("| id | class | site | analyzers that fire | `go test -race` | other tests |")
        print("|---|---|---|---|---|---|")
        for mid, path, site, old, new in mutants:
            start = time.time()
            target = os.path.join(tree, path)
            src = open(target).read()
            edits = [(old, new)] + ([EXTRA[mid]] if mid in EXTRA else [])
            mutated = src
            missing = False
            for o, n in edits:
                if mutated.count(o) != 1:
                    missing = True
                    break
                mutated = mutated.replace(o, n)
            if missing:
                print("| %s | %s | `%s` %s | old text not found once | | |" %
                      (mid, CLASSES[mid[0]], path, site), flush=True)
                continue
            open(target, "w").write(mutated)

            def log(text, name=mid):
                if args.logs:
                    with open(os.path.join(args.logs, name + ".log"), "a") as f:
                        f.write(text)
            try:
                status, out = sh(["go", "build", "./..."], tree, 600)
                if status != 0:
                    print("| %s | %s | `%s` %s | does not compile | | |" %
                          (mid, CLASSES[mid[0]], path, site), flush=True)
                    continue
                lint_cell = vmlint(tree, lint)
                race_cell = "(not run)" if one_thread(path) else race_tests(tree, log)
                kind = other_tests(path)
                if kind is None:
                    other_cell = "(none beyond the race set)"
                elif kind[0] == "go":
                    status, out = sh(kind[1], tree, 900)
                    log(out)
                    other_cell = summarize_go_test(status, out)
                elif kind[1] == "vmload":
                    other_cell = "vmload smoke: " + smoke_vmload(tree, bindir)
                else:
                    other_cell = "vmprimd smoke: " + smoke_vmprimd(tree, bindir)
            finally:
                open(target, "w").write(src)
            print("| %s | %s | `%s` %s | %s | %s | %s |" %
                  (mid, CLASSES[mid[0]], path, site, lint_cell, race_cell, other_cell), flush=True)
            print("%s done in %.0f s" % (mid, time.time() - start), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
