package main

import (
	"fmt"
	"math/rand"

	"vmprim/internal/apps"
	"vmprim/internal/bench"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/router"
	"vmprim/internal/serial"
)

// routeInst is the route workload: everything in its cycle rides the
// general router and core/remap.go, the substrate of every "naive"
// column of E3-E5; the collectives do little.
type routeInst struct {
	big, small *hypercube.Machine // d=8 and d=6

	transpose func(*hypercube.Proc)
	perm      func(*hypercube.Proc)
	hotspot   func(*hypercube.Proc)
	badRoute  []bool // per processor: what Route delivered was not what was sent

	mvA    *serial.Mat
	mvX    []float64
	mvWant []float64

	gaA    *serial.Mat
	gaB    []float64
	gaWant []float64
	gaOpts apps.GaussOpts

	lpC, lpB []float64
	lpA      *serial.Mat
	lpWant   serial.LPResult
	lpOpts   apps.SimplexOpts
}

const (
	routeDim      = 8
	routeSmallDim = 6
	transposeN    = 256
	routeWords    = 16
	naiveMatvecN  = 128
	naiveGaussN   = 16
	naiveLPRows   = 16
	naiveLPCols   = 24
	// Random programs of this shape need between 3 and 9 pivots
	// depending on the seed. Stopping every solve after 3 makes an op the
	// same work on every seed; the serial reference stops there too.
	naiveLPPivots = 3
)

func setupRoute(seed int64) (_ instance, err error) {
	w := &routeInst{}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.big, err = hypercube.New(routeDim, costmodel.CM2()); err != nil {
		return nil, err
	}
	if w.small, err = hypercube.New(routeSmallDim, costmodel.CM2()); err != nil {
		return nil, err
	}
	procs := w.big.P()

	// Transpose: checked once against the serial transpose through a
	// host-readable destination; the cycle uses core.Transpose itself.
	g := embed.SplitFor(routeDim, transposeN, transposeN)
	dense := bench.RandMat(seed*1000+11, transposeN, transposeN)
	a, err := core.FromDense(g, dense, embed.Block, embed.Block)
	if err != nil {
		return nil, err
	}
	at, err := core.NewMatrix(g, transposeN, transposeN, embed.Block, embed.Block)
	if err != nil {
		return nil, err
	}
	if _, err = w.big.Run(func(p *hypercube.Proc) { core.NewEnv(p, g).TransposeInto(at, a) }); err != nil {
		return nil, err
	}
	if err = sameVec("transpose", at.ToDense().A, dense.Transpose().A); err != nil {
		return nil, err
	}
	w.transpose = func(p *hypercube.Proc) { core.NewEnv(p, g).Transpose(a) }

	// Route: one 16-word message per processor, to a seeded random
	// permutation and then all to processor 0.
	rng := rand.New(rand.NewSource(seed*1000 + 12))
	dst := rng.Perm(procs)
	src := make([]int, procs)
	for from, to := range dst {
		src[to] = from
	}
	payload := bench.RandVec(seed*1000+13, procs*routeWords)
	permOut := make([][]router.Msg, procs)
	hotOut := make([][]router.Msg, procs)
	for pid := 0; pid < procs; pid++ {
		words := payload[pid*routeWords : (pid+1)*routeWords]
		permOut[pid] = []router.Msg{{Dst: dst[pid], Key: pid, Words: words}}
		hotOut[pid] = []router.Msg{{Dst: 0, Key: pid, Words: words}}
	}
	w.badRoute = make([]bool, procs)
	intact := func(m router.Msg) bool {
		if m.Key < 0 || m.Key >= procs || len(m.Words) != routeWords {
			return false
		}
		for i, v := range m.Words {
			if v != payload[m.Key*routeWords+i] {
				return false
			}
		}
		return true
	}
	w.perm = func(p *hypercube.Proc) {
		got := router.Route(p, 1, permOut[p.ID()])
		w.badRoute[p.ID()] = len(got) != 1 || got[0].Key != src[p.ID()] || !intact(got[0])
	}
	w.hotspot = func(p *hypercube.Proc) {
		got := router.Route(p, 2, hotOut[p.ID()])
		want := 0
		if p.ID() == 0 {
			want = procs
		}
		bad := len(got) != want
		seen := 0
		for _, m := range got {
			bad = bad || !intact(m)
			seen += m.Key
		}
		w.badRoute[p.ID()] = bad || (want > 0 && seen != procs*(procs-1)/2)
	}

	w.mvA = bench.RandMat(seed*1000+14, naiveMatvecN, naiveMatvecN)
	w.mvX = bench.RandVec(seed*1000+15, naiveMatvecN)
	w.mvWant = serial.VecMatMul(w.mvX, w.mvA)

	w.gaA, w.gaB = bench.RandSystem(seed*1000+16, naiveGaussN)
	if w.gaWant, err = serial.GaussSolve(w.gaA, w.gaB); err != nil {
		return nil, err
	}
	w.gaOpts = apps.DefaultGaussOpts()
	w.gaOpts.Naive = true

	w.lpC, w.lpA, w.lpB = bench.RandLP(seed*1000+17, naiveLPRows, naiveLPCols)
	if w.lpWant, err = serial.SolveLP(w.lpC, w.lpA, w.lpB, naiveLPPivots); err != nil {
		return nil, err
	}
	w.lpOpts = apps.DefaultSimplexOpts()
	w.lpOpts.Naive = true
	w.lpOpts.MaxIter = naiveLPPivots
	return w, nil
}

func (w *routeInst) routed(c *client, call string, body func(*hypercube.Proc)) error {
	if err := c.run(call, w.big, body); err != nil {
		return err
	}
	for pid, bad := range w.badRoute {
		if bad {
			return fmt.Errorf("%s: processor %d did not receive what was sent to it", call, pid)
		}
	}
	return nil
}

func (w *routeInst) cycle(c *client) error {
	if err := c.run("core.transpose", w.big, w.transpose); err != nil {
		return err
	}
	if err := w.routed(c, "router.route_perm", w.perm); err != nil {
		return err
	}
	if err := w.routed(c, "router.route_hotspot", w.hotspot); err != nil {
		return err
	}

	c.tr.begin("apps.matvec_naive")
	y, sim, st, err := apps.RunVecMat(w.big, w.mvA, w.mvX, apps.MatvecNaive)
	c.tr.end()
	if err != nil {
		return fmt.Errorf("apps.matvec_naive: %w", err)
	}
	c.note("apps.matvec_naive", sim, st)
	if err := sameVec("apps.matvec_naive y", y, w.mvWant); err != nil {
		return err
	}

	c.tr.begin("apps.gauss_naive")
	x, sim, err := apps.SolveGauss(w.small, w.gaA, w.gaB, w.gaOpts)
	c.tr.end()
	if err != nil {
		return fmt.Errorf("apps.gauss_naive: %w", err)
	}
	c.note("apps.gauss_naive", sim, w.small.LastStats())
	if err := sameVec("apps.gauss_naive x", x, w.gaWant); err != nil {
		return err
	}

	c.tr.begin("apps.simplex_naive")
	lp, sim, err := apps.SolveSimplex(w.small, w.lpC, w.lpA, w.lpB, w.lpOpts)
	c.tr.end()
	if err != nil {
		return fmt.Errorf("apps.simplex_naive: %w", err)
	}
	c.note("apps.simplex_naive", sim, w.small.LastStats())
	return sameLP("apps.simplex_naive", lp, w.lpWant)
}

// sameLP checks a distributed simplex result against the serial solver
// stopped after the same number of pivots.
func sameLP(what string, got, want serial.LPResult) error {
	if got.Status != want.Status || got.Iterations != want.Iterations {
		return fmt.Errorf("%s: %v after %d pivots, serial reference %v after %d",
			what, got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if !closeTo(got.Z, want.Z) {
		return fmt.Errorf("%s: objective %g, serial reference %g", what, got.Z, want.Z)
	}
	return sameVec(what+" x", got.X, want.X)
}

func (w *routeInst) close() {
	if w.big != nil {
		w.big.Close()
	}
	if w.small != nil {
		w.small.Close()
	}
}
