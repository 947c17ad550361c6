// Package fsort provides a fast ascending sort for float64 slices.
//
// The fit path is dominated by sorting: the profile of a DPI fit at
// n = 10⁶ spends ~90% of its time in the comparison sort that feeds the
// shared fit context. An LSD radix sort over the IEEE-754 bit patterns
// replaces the O(n log n) comparison sort with at most eight O(n)
// counting passes (fewer in practice: passes whose byte is constant
// across the slice — common for data of limited range — are skipped),
// which is several times faster at the sample sizes the experiments run.
//
// For every slice free of NaNs the result is the radix-key order: the
// key transform (flip the sign bit of non-negatives, flip every bit of
// negatives) makes unsigned key order agree with float order, including
// -Inf and +Inf, and it places -0 before +0. That is a valid ascending
// sort (-0 and +0 compare equal) and it is unique, so callers that merge
// sorted runs by key get bit for bit what a fresh sort would give.
// Slices already in that order come back after one linear check. Short
// slices, where the counting passes cannot pay for themselves, are
// comparison-sorted and then put their zeros in key order. Slices
// containing NaNs fall back to sort.Float64s to preserve its NaNs-first
// convention.
package fsort

import (
	"math"
	"sort"
	"unsafe"
)

// radixMin is the slice length below which the comparison sort wins:
// the radix passes touch 256-entry count tables and an n-word scratch
// buffer regardless of n.
const radixMin = 256

// Float64s sorts xs in ascending order. It is a drop-in replacement for
// sort.Float64s (same ordering, NaNs first), faster for large slices.
func Float64s(xs []float64) {
	inOrder := true
	var prev uint64
	for _, x := range xs {
		if math.IsNaN(x) {
			sort.Float64s(xs)
			return
		}
		k := Key(x)
		inOrder = inOrder && k >= prev
		prev = k
	}
	switch {
	case inOrder:
	case len(xs) < radixMin:
		sort.Float64s(xs)
		zerosInKeyOrder(xs)
	default:
		radixSortFloat64s(xs)
	}
}

// Key is the order-preserving transform of a float64 to the unsigned
// key the radix passes sort by: non-negatives flip the sign bit,
// negatives flip every bit. It is a bijection, so two values share a key
// exactly when they share a bit pattern.
func Key(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// zerosInKeyOrder rewrites the zero run of a sorted NaN-free slice so its
// -0s precede its +0s, as the radix keys order them.
func zerosInKeyOrder(xs []float64) {
	lo := sort.SearchFloat64s(xs, 0)
	neg, hi := 0, lo
	for ; hi < len(xs) && xs[hi] == 0; hi++ {
		if math.Signbit(xs[hi]) {
			neg++
		}
	}
	for i := lo; i < hi; i++ {
		xs[i] = 0
	}
	for i := lo; i < lo+neg; i++ {
		xs[i] = math.Copysign(0, -1)
	}
}

// radixSortFloat64s sorts a NaN-free slice by LSD radix passes over the
// order-preserving key transform of the IEEE-754 bit patterns. The keys
// replace the values in xs's own memory, and the passes ping-pong
// between it and one n-word scratch buffer, the only allocation.
func radixSortFloat64s(xs []float64) {
	n := len(xs)
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(xs))), n)
	for i, x := range xs {
		keys[i] = Key(x)
	}

	// All eight byte histograms in one pass over the keys.
	var hist [8][256]int
	for _, k := range keys {
		hist[0][k&0xff]++
		hist[1][k>>8&0xff]++
		hist[2][k>>16&0xff]++
		hist[3][k>>24&0xff]++
		hist[4][k>>32&0xff]++
		hist[5][k>>40&0xff]++
		hist[6][k>>48&0xff]++
		hist[7][k>>56&0xff]++
	}

	buf := make([]uint64, n)
	src, dst := keys, buf
	for pass := 0; pass < 8; pass++ {
		h := &hist[pass]
		// A pass whose byte is constant is the identity permutation.
		if h[src[0]>>(uint(pass)*8)&0xff] == n {
			continue
		}
		offset := 0
		for b := 0; b < 256; b++ {
			c := h[b]
			h[b] = offset
			offset += c
		}
		shift := uint(pass) * 8
		for _, k := range src {
			b := k >> shift & 0xff
			dst[h[b]] = k
			h[b]++
		}
		src, dst = dst, src
	}

	// src is keys or the scratch buffer, by the parity of the passes run.
	for i, k := range src {
		// Invert the key transform: the top bit tells which branch the
		// encoder took.
		xs[i] = math.Float64frombits(k ^ ((k>>63-1)&^(1<<63) | 1<<63))
	}
}
