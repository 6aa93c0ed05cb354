package gray

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i := 0; i < 1<<14; i++ {
		if got := Decode(Encode(i)); got != i {
			t.Fatalf("Decode(Encode(%d)) = %d", i, got)
		}
	}
}

func TestEncodeAdjacency(t *testing.T) {
	for i := 0; i < 1<<14; i++ {
		d := Encode(i) ^ Encode(i+1)
		if bits.OnesCount(uint(d)) != 1 {
			t.Fatalf("gray(%d) and gray(%d) differ in %d bits", i, i+1, bits.OnesCount(uint(d)))
		}
	}
}

func TestEncodeIsPermutation(t *testing.T) {
	const n = 1 << 12
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		g := Encode(i)
		if g < 0 || g >= n {
			t.Fatalf("Encode(%d) = %d out of range", i, g)
		}
		if seen[g] {
			t.Fatalf("Encode not injective at %d", i)
		}
		seen[g] = true
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(x uint16) bool { return Decode(Encode(int(x))) == int(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog2(t *testing.T) {
	for d := 0; d < 30; d++ {
		if got := Log2(1 << d); got != d {
			t.Fatalf("Log2(1<<%d) = %d", d, got)
		}
	}
	for _, bad := range []int{0, -4, 3, 6, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Log2(%d) did not panic", bad)
				}
			}()
			Log2(bad)
		}()
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDims(t *testing.T) {
	got := AppendDims(nil, 0b101101)
	want := []int{0, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("AppendDims = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendDims = %v, want %v", got, want)
		}
	}
	if len(AppendDims(nil, 0)) != 0 {
		t.Fatal("AppendDims(nil, 0) not empty")
	}
	// It appends: what dst holds stays in front.
	if got := AppendDims([]int{9}, 0b110); len(got) != 3 || got[0] != 9 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("AppendDims([9], 110) = %v", got)
	}
}

// compactLoop and dimsLoop are the bit-by-bit forms Compact and
// AppendDims must agree with, whatever shortcut they take.
func compactLoop(x, mask int) int {
	r, i := 0, 0
	for m := mask; m != 0; m &= m - 1 {
		if x&(m&-m) != 0 {
			r |= 1 << i
		}
		i++
	}
	return r
}

func dimsLoop(mask int) []int {
	var ds []int
	for i := 0; i < bits.UintSize; i++ {
		if uint(mask)>>i&1 != 0 {
			ds = append(ds, i)
		}
	}
	return ds
}

func TestCompactAppendDimsMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(mask int) {
		t.Helper()
		got, want := AppendDims(nil, mask), dimsLoop(mask)
		if len(got) != len(want) {
			t.Fatalf("AppendDims(%b) = %v, want %v", mask, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AppendDims(%b) = %v, want %v", mask, got, want)
			}
		}
		xs := []int{0, -1, mask, ^mask}
		for i := 0; i < 8; i++ {
			xs = append(xs, rng.Int())
		}
		for _, x := range xs {
			if got, want := Compact(x, mask), compactLoop(x, mask); got != want {
				t.Fatalf("Compact(%b, %b) = %b, want %b", x, mask, got, want)
			}
		}
	}
	// Every mask below 2^12: its 78 runs of ones take Compact's shift,
	// the rest its loop.
	for mask := 0; mask < 1<<12; mask++ {
		check(mask)
	}
	for i := 0; i < 4096; i++ {
		check(rng.Intn(1 << 20))
	}
	// Runs of ones at every offset of a 20-bit cube, and masks reaching
	// the sign bit, where the shift must not sign-extend.
	for lo := 0; lo < 20; lo++ {
		for hi := lo + 1; hi <= 20; hi++ {
			check((1<<hi - 1) &^ (1<<lo - 1))
		}
	}
	check(-1)
	check(-1 << 62)
	check(math.MinInt)
	check(math.MinInt | 1)
}

func TestSpreadCompactRoundTrip(t *testing.T) {
	f := func(x uint8, mask uint16) bool {
		m := int(mask)
		n := bits.OnesCount(uint(mask))
		v := int(x) & ((1 << n) - 1)
		if n > 8 {
			v = int(x)
		}
		return Compact(Spread(v, m), m) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadStaysInMask(t *testing.T) {
	f := func(x uint8, mask uint16) bool {
		return Spread(int(x), int(mask))&^int(mask) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadCompactExamples(t *testing.T) {
	// mask 0b1010: positions 1 and 3.
	if got := Spread(0b01, 0b1010); got != 0b0010 {
		t.Fatalf("Spread(01,1010) = %b", got)
	}
	if got := Spread(0b11, 0b1010); got != 0b1010 {
		t.Fatalf("Spread(11,1010) = %b", got)
	}
	if got := Compact(0b1000, 0b1010); got != 0b10 {
		t.Fatalf("Compact(1000,1010) = %b", got)
	}
}

func TestOnesCount(t *testing.T) {
	if OnesCount(0b1011) != 3 {
		t.Fatal("OnesCount")
	}
}
