package apps

import (
	"math/rand"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
	"vmprim/internal/testutil"
)

// TestRunVecMatStagesItsOperands: RunVecMat stages A and x inside its
// one Run, so a warm call at the apps benchmark's shape (d = 8, n =
// 512) allocates y and a few words, not a host copy of A's 2 MB. The
// primitive variant's spread block must stay in the run slab beside
// the staged A, too: past the slab's limit it is a 2 MB make of its
// own. Measured: 2.2 MB per call with A and x in host containers, 4.1
// KB staged. The guard allows 5% of A.
func TestRunVecMatStagesItsOperands(t *testing.T) {
	const d, n = 8, 512
	m := hypercube.MustNew(d, costmodel.CM2())
	defer m.Close()
	rng := rand.New(rand.NewSource(55))
	a := serial.NewMat(n, n)
	for i := range a.A {
		a.A[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	limit := 0.05 * float64(8*n*n)
	for _, variant := range []MatvecVariant{MatvecPrimitive, MatvecFused} {
		per := testutil.BytesPerRun(2, 3, func() {
			if _, _, _, err := RunVecMat(m, a, x, variant); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("RunVecMat %v d=%d n=%d: %.1f KB per call", variant, d, n, per/1024)
		if per > limit {
			t.Errorf("RunVecMat %v allocates %.0f KB per call, want <= %.0f KB", variant, per/1024, limit/1024)
		}
	}
}
