package core

// Fused arithmetic kernels for the primitives' local phases.
//
// The seed implementation dispatched on the reduction operator once
// per element (Op.fold's switch) and called user closures per element
// for the fixed-form updates (AXPY, rank-1 eliminate). These kernels
// are selected once per call and run monomorphic tight loops over
// contiguous slices, which the valid-prefix property of embed.Map1D
// (padding is always a suffix, restricted index ranges are always
// contiguous local windows) makes possible without per-element bounds
// or padding tests.
//
// Every kernel applies exactly the same operations in exactly the same
// order as the loop it replaces, so distributed results — including
// the floating-point rounding of reduction chains — are bit-identical
// to the seed's.

// fillIdentity sets every element of dst to op's identity.
func fillIdentity(dst []float64, op Op) {
	id := op.identity()
	for i := range dst {
		dst[i] = id
	}
}

// foldSlice folds xs into acc under op, left to right — the scalar
// reduction of one local row or piece.
func foldSlice(op Op, acc float64, xs []float64) float64 {
	switch op {
	case OpSum:
		for _, v := range xs {
			acc += v
		}
	case OpMax:
		for _, v := range xs {
			if v > acc {
				acc = v
			}
		}
	case OpMin:
		for _, v := range xs {
			if v < acc {
				acc = v
			}
		}
	default:
		panic("core: unknown Op")
	}
	return acc
}

// scanSlice replaces xs with its inclusive left-to-right prefix
// combination under op and returns the total (the last prefix).
func scanSlice(op Op, xs []float64) float64 {
	acc := op.identity()
	switch op {
	case OpSum:
		for i, v := range xs {
			acc += v
			xs[i] = acc
		}
	case OpMax:
		for i, v := range xs {
			if v > acc {
				acc = v
			}
			xs[i] = acc
		}
	case OpMin:
		for i, v := range xs {
			if v < acc {
				acc = v
			}
			xs[i] = acc
		}
	default:
		panic("core: unknown Op")
	}
	return acc
}

// foldScalarInto applies dst[i] = op(s, dst[i]) elementwise — the
// prefix fixup of ScanVec. The asymmetric comparison mirrors Op.fold's
// "keep a unless b beats it" exactly.
func foldScalarInto(op Op, dst []float64, s float64) {
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] = s + dst[i]
		}
	case OpMax:
		for i := range dst {
			if !(dst[i] > s) {
				dst[i] = s
			}
		}
	case OpMin:
		for i := range dst {
			if !(dst[i] < s) {
				dst[i] = s
			}
		}
	default:
		panic("core: unknown Op")
	}
}

// axpyInto applies dst[i] += alpha*src[i] — the AXPY of iterative
// solvers.
func axpyInto(dst, src []float64, alpha float64) {
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// scaleAddInto applies dst[i] = beta*dst[i] + src[i] — the p-update
// of conjugate gradient.
func scaleAddInto(dst, src []float64, beta float64) {
	for i, v := range src {
		dst[i] = beta*dst[i] + v
	}
}

// dotSlices returns sum_i a[i]*b[i], accumulated left to right.
func dotSlices(a, b []float64) float64 {
	acc := 0.0
	for i, v := range a {
		acc += v * b[i]
	}
	return acc
}

// subOuterRow applies row[i] -= ci*rv[i] — one local row of the
// rank-1 elimination update.
func subOuterRow(row []float64, ci float64, rv []float64) {
	for i, r := range rv {
		row[i] = row[i] - ci*r
	}
}

// addMulOuterRow applies row[i] += ci*rv[i] — one local row of the
// rank-1 accumulation of matrix multiply.
func addMulOuterRow(row []float64, ci float64, rv []float64) {
	for i, r := range rv {
		row[i] = row[i] + ci*r
	}
}
