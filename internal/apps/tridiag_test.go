package apps

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

func randTridiag(rng *rand.Rand, n int) (a, b, c, d []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	c = make([]float64, n)
	d = make([]float64, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			a[i] = rng.NormFloat64()
		}
		if i < n-1 {
			c[i] = rng.NormFloat64()
		}
		b[i] = 4 + rng.Float64() // diagonally dominant
		d[i] = rng.NormFloat64()
	}
	return
}

func TestSerialTridiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for _, n := range []int{1, 2, 3, 7, 20} {
		a, b, c, d := randTridiag(rng, n)
		x, err := serial.SolveTridiag(a, b, c, d)
		if err != nil {
			t.Fatal(err)
		}
		dense := serial.NewMat(n, n)
		for i := 0; i < n; i++ {
			dense.Set(i, i, b[i])
			if i > 0 {
				dense.Set(i, i-1, a[i])
			}
			if i < n-1 {
				dense.Set(i, i+1, c[i])
			}
		}
		want, err := serial.GaussSolve(dense, d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-9 {
				t.Fatalf("n %d: x[%d] = %v, want %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestSerialTridiagValidation(t *testing.T) {
	if _, err := serial.SolveTridiag([]float64{1}, []float64{1, 2}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("ragged bands accepted")
	}
	if _, err := serial.SolveTridiag([]float64{0}, []float64{0}, []float64{0}, []float64{1}); err == nil {
		t.Fatal("zero pivot accepted")
	}
	if x, err := serial.SolveTridiag(nil, nil, nil, nil); err != nil || x != nil {
		t.Fatal("empty system mishandled")
	}
}

func TestDistributedTridiagValidation(t *testing.T) {
	m := hypercube.MustNew(2, costmodel.CM2())
	one := func(n int) []float64 { return make([]float64, n) }
	_, _, err := SolveTridiag(m, one(3), one(3), one(2), one(3))
	if err == nil || !strings.Contains(err.Error(), "3/3/2/3") {
		t.Fatalf("b/c length mismatch: err = %v, want the four lengths 3/3/2/3", err)
	}
}

func TestDistributedTridiagMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for _, dim := range []int{0, 1, 3, 5} {
		m := hypercube.MustNew(dim, costmodel.CM2())
		for _, n := range []int{1, 2, 3, 5, 7, 8, 15, 16, 31, 50, 100} {
			a, b, c, d := randTridiag(rng, n)
			x, elapsed, err := SolveTridiag(m, a, b, c, d)
			if err != nil {
				t.Fatalf("dim %d n %d: %v", dim, n, err)
			}
			want, err := serial.SolveTridiag(a, b, c, d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(x[i]-want[i]) > 1e-8 {
					t.Fatalf("dim %d n %d: x[%d] = %v, want %v", dim, n, i, x[i], want[i])
				}
			}
			if dim > 0 && n > 1 && elapsed <= 0 {
				t.Fatal("no simulated time")
			}
		}
	}
}

func TestDistributedTridiagLogDepth(t *testing.T) {
	// Cyclic reduction's simulated time must grow ~logarithmically in
	// n once the machine is saturated: quadrupling n from an already
	// large size should much less than quadruple the time.
	m := hypercube.MustNew(5, costmodel.CM2())
	times := map[int]costmodel.Time{}
	for _, n := range []int{256, 1024} {
		rng := rand.New(rand.NewSource(97))
		a, b, c, d := randTridiag(rng, n)
		_, elapsed, err := SolveTridiag(m, a, b, c, d)
		if err != nil {
			t.Fatal(err)
		}
		times[n] = elapsed
	}
	if ratio := float64(times[1024]) / float64(times[256]); ratio > 3 {
		t.Fatalf("time ratio %v for 4x n: not sublinear", ratio)
	}
}

func TestDistributedTridiagEmpty(t *testing.T) {
	m := hypercube.MustNew(2, costmodel.CM2())
	x, _, err := SolveTridiag(m, nil, nil, nil, nil)
	if err != nil || len(x) != 0 {
		t.Fatalf("empty system: %v %v", x, err)
	}
	if _, _, err := SolveTridiag(m, []float64{1}, []float64{1, 2}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("ragged bands accepted")
	}
}

func TestSolveTridiagBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	for _, dim := range []int{0, 2, 4} {
		m := hypercube.MustNew(dim, costmodel.CM2())
		var systems []TridiagSystem
		var wants [][]float64
		for si := 0; si < 11; si++ {
			n := 1 + rng.Intn(30)
			a, b, c, d := randTridiag(rng, n)
			systems = append(systems, TridiagSystem{A: a, B: b, C: c, D: d})
			want, err := serial.SolveTridiag(a, b, c, d)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, want)
		}
		got, _, err := SolveTridiagBatch(m, systems)
		if err != nil {
			t.Fatal(err)
		}
		for si := range wants {
			for i := range wants[si] {
				if math.Abs(got[si][i]-wants[si][i]) > 1e-10 {
					t.Fatalf("dim %d system %d x[%d] = %v, want %v", dim, si, i, got[si][i], wants[si][i])
				}
			}
		}
	}
}

func TestSolveTridiagBatchBeatsSequentialCR(t *testing.T) {
	// With as many systems as processors, whole-system partitioning
	// (embarrassingly parallel local Thomas solves) must beat solving
	// the systems one after another with cyclic reduction — the
	// optimal-partitioning result of the ADM literature.
	rng := rand.New(rand.NewSource(99))
	m := hypercube.MustNew(4, costmodel.CM2())
	const n = 64
	var systems []TridiagSystem
	for si := 0; si < m.P(); si++ {
		a, b, c, d := randTridiag(rng, n)
		systems = append(systems, TridiagSystem{A: a, B: b, C: c, D: d})
	}
	_, tBatch, err := SolveTridiagBatch(m, systems)
	if err != nil {
		t.Fatal(err)
	}
	var tSeq costmodel.Time
	for _, sys := range systems {
		_, el, err := SolveTridiag(m, sys.A, sys.B, sys.C, sys.D)
		if err != nil {
			t.Fatal(err)
		}
		tSeq += el
	}
	if tBatch*4 > tSeq {
		t.Fatalf("batch (%v) not clearly faster than %d sequential CR solves (%v)", tBatch, m.P(), tSeq)
	}
}

func TestSolveTridiagBatchValidation(t *testing.T) {
	m := hypercube.MustNew(2, costmodel.CM2())
	if out, _, err := SolveTridiagBatch(m, nil); err != nil || out != nil {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	bad := []TridiagSystem{{A: []float64{1}, B: []float64{1, 2}, C: []float64{1, 2}, D: []float64{1, 2}}}
	if _, _, err := SolveTridiagBatch(m, bad); err == nil {
		t.Fatal("ragged system accepted")
	}
}
