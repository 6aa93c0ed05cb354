// Package gray provides binary-reflected Gray codes and Boolean-cube
// bit utilities. Gray codes are the embedding substrate of the library:
// a d-bit binary-reflected Gray code maps a ring (or line) of 2^d grid
// coordinates onto a d-dimensional Boolean cube so that adjacent
// coordinates are cube neighbors (Hamming distance one). Matrix and
// vector embeddings in internal/embed use one Gray code per processor
// grid axis, following the load-balanced embeddings of Agrawal,
// Blelloch, Krawitz and Phillips (SPAA 1989) and the mesh-embedding
// literature it builds on (Ho & Johnsson).
package gray

import "math/bits"

// Encode returns the binary-reflected Gray code of i: g = i XOR (i >> 1).
// Successive integers map to codes at Hamming distance one.
func Encode(i int) int {
	return i ^ (i >> 1)
}

// Decode inverts Encode: it returns the integer whose Gray code is g.
func Decode(g int) int {
	i := 0
	for ; g != 0; g >>= 1 {
		i ^= g
	}
	return i
}

// Log2 returns the base-2 logarithm of the power of two n.
// It panics if n is not a positive power of two: cube sizes, grid
// extents and block counts in this library are powers of two by
// construction, so a non-power is a programming error.
func Log2(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		panic("gray: Log2 of non-power-of-two")
	}
	return bits.TrailingZeros(uint(n))
}

// CeilLog2 returns ceil(log2(n)) for n >= 1.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// OnesCount returns the number of set bits of x (the Hamming weight).
// The Hamming distance between two cube addresses a and b is
// OnesCount(a ^ b): the number of cube edges on a shortest path.
func OnesCount(x int) int {
	return bits.OnesCount(uint(x))
}

// AppendDims appends the indices of the set bits of mask to dst in
// increasing order and returns the extended slice. Collectives iterate
// over subcube dimension masks this way, filling a fixed-size array on
// their own stack so that entering a collective allocates nothing.
func AppendDims(dst []int, mask int) []int {
	for m := uint(mask); m != 0; m &= m - 1 {
		dst = append(dst, bits.TrailingZeros(m))
	}
	return dst
}

// Spread distributes the low bits of x into the set-bit positions of
// mask, lowest bit first. It is the inverse of Compact and maps a
// subcube-relative coordinate to the full cube address contribution.
func Spread(x, mask int) int {
	r := 0
	for m := mask; m != 0; m &= m - 1 {
		bit := m & -m
		if x&1 != 0 {
			r |= bit
		}
		x >>= 1
	}
	return r
}

// Compact gathers the bits of x at the set-bit positions of mask into
// the low bits of the result, lowest mask bit first. It maps a full
// cube address to a subcube-relative coordinate.
//
// When the set bits of mask are contiguous, as they are for a whole
// cube and for a grid's row and column masks, the gather is one shift.
func Compact(x, mask int) int {
	// Adding a run's lowest bit carries through the whole run.
	if m := uint(mask); (m+m&-m)&m == 0 {
		return int(uint(x&mask) >> bits.TrailingZeros(m))
	}
	r, i := 0, 0
	for m := mask; m != 0; m &= m - 1 {
		bit := m & -m
		if x&bit != 0 {
			r |= 1 << i
		}
		i++
	}
	return r
}
