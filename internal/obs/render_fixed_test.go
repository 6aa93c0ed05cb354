package obs

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// FuzzAppendFixed3 checks the Chrome trace's timestamp formatter
// against the call it replaces, strconv.AppendFloat(b, v, 'f', 3, 64),
// byte for byte: on the fuzzed float itself, on the float with the
// fuzzed bit pattern (NaNs, infinities and subnormals included), and
// on the fuzzed float scaled by a non-integer cost, the shape of an
// iPSC or custom-model timestamp.
func FuzzAppendFixed3(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53),
		0.5, 0.0005, 0.0015, 0.001, -0.0004, 1e-7, 123.456, 123.4565, 2.675, 0.1 + 0.2,
		1e12 - 0.001, 1e12, 1e12 + 0.5, 1e21, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(x, math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, x float64, bits uint64) {
		for _, v := range []float64{x, math.Float64frombits(bits), x * 0.35, float64(int64(x)%1e9) * 1.25} {
			want := strconv.AppendFloat([]byte("ts:"), v, 'f', 3, 64)
			if got := appendFixed3([]byte("ts:"), v); !bytes.Equal(got, want) {
				t.Errorf("%v (bits %#x): got %s, want %s", v, math.Float64bits(v), got, want)
			}
		}
	})
}
