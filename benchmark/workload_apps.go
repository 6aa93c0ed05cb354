package main

import (
	"fmt"

	"vmprim/internal/apps"
	"vmprim/internal/bench"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// appsInst is the apps workload: the primitive-based applications, each
// one long Run of about 10^5 messages of a few words, host I/O
// (core.FromDense, ToSlice) included, so per-message start-up dominates
// and per-Run dispatch is amortised away.
type appsInst struct {
	big, small *hypercube.Machine // d=8 and d=6

	gaA    *serial.Mat
	gaB    []float64
	gaWant []float64

	lpC, lpB []float64
	lpA      *serial.Mat
	lpWant   serial.LPResult
	lpOpts   apps.SimplexOpts

	mvA    *serial.Mat
	mvX    []float64
	mvWant []float64

	mmA, mmB, mmWant *serial.Mat
}

const (
	appsDim      = 8
	appsSmallDim = 6
	gaussN       = 64
	lpRows       = 32
	lpCols       = 48
	// Programs of this shape need between 5 and 13 pivots depending on
	// the seed; every solve stops after 5 (see naiveLPPivots).
	lpPivots = 5
	matvecN  = 512
	matmulN  = 64
)

var matvecCalls = []struct {
	call    string
	variant apps.MatvecVariant
}{{"apps.matvec_fused", apps.MatvecFused}, {"apps.matvec_primitive", apps.MatvecPrimitive}}

func setupApps(seed int64) (_ instance, err error) {
	w := &appsInst{}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.big, err = hypercube.New(appsDim, costmodel.CM2()); err != nil {
		return nil, err
	}
	if w.small, err = hypercube.New(appsSmallDim, costmodel.CM2()); err != nil {
		return nil, err
	}
	w.gaA, w.gaB = bench.RandSystem(seed*1000+21, gaussN)
	if w.gaWant, err = serial.GaussSolve(w.gaA, w.gaB); err != nil {
		return nil, err
	}
	w.lpC, w.lpA, w.lpB = bench.RandLP(seed*1000+22, lpRows, lpCols)
	if w.lpWant, err = serial.SolveLP(w.lpC, w.lpA, w.lpB, lpPivots); err != nil {
		return nil, err
	}
	w.lpOpts = apps.DefaultSimplexOpts()
	w.lpOpts.MaxIter = lpPivots
	w.mvA = bench.RandMat(seed*1000+23, matvecN, matvecN)
	w.mvX = bench.RandVec(seed*1000+24, matvecN)
	w.mvWant = serial.VecMatMul(w.mvX, w.mvA)
	w.mmA = bench.RandMat(seed*1000+25, matmulN, matmulN)
	w.mmB = bench.RandMat(seed*1000+26, matmulN, matmulN)
	w.mmWant = serial.MatMul(w.mmA, w.mmB)
	return w, nil
}

func (w *appsInst) cycle(c *client) error {
	c.tr.begin("apps.gauss")
	x, sim, err := apps.SolveGauss(w.small, w.gaA, w.gaB, apps.DefaultGaussOpts())
	c.tr.end()
	if err != nil {
		return fmt.Errorf("apps.gauss: %w", err)
	}
	c.note("apps.gauss", sim, w.small.LastStats())
	if err := sameVec("apps.gauss x", x, w.gaWant); err != nil {
		return err
	}

	c.tr.begin("apps.simplex")
	lp, sim, err := apps.SolveSimplex(w.big, w.lpC, w.lpA, w.lpB, w.lpOpts)
	c.tr.end()
	if err != nil {
		return fmt.Errorf("apps.simplex: %w", err)
	}
	c.note("apps.simplex", sim, w.big.LastStats())
	if err := sameLP("apps.simplex", lp, w.lpWant); err != nil {
		return err
	}

	for _, mv := range matvecCalls {
		c.tr.begin(mv.call)
		y, sim, st, err := apps.RunVecMat(w.big, w.mvA, w.mvX, mv.variant)
		c.tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", mv.call, err)
		}
		c.note(mv.call, sim, st)
		if err := sameVec(mv.call+" y", y, w.mvWant); err != nil {
			return err
		}
	}

	c.tr.begin("apps.matmul")
	prod, sim, err := apps.MatMul(w.big, w.mmA, w.mmB, embed.Block)
	c.tr.end()
	if err != nil {
		return fmt.Errorf("apps.matmul: %w", err)
	}
	c.note("apps.matmul", sim, w.big.LastStats())
	return sameVec("apps.matmul c", prod.A, w.mmWant.A)
}

func (w *appsInst) close() {
	if w.big != nil {
		w.big.Close()
	}
	if w.small != nil {
		w.small.Close()
	}
}
