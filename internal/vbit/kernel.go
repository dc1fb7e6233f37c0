// Package vbit is the word-parallel vertical mining engine: per-item TID
// bitmaps packed into []uint64 words, support counting by popcount
// (math/bits.OnesCount64, a single hardware instruction on every target we
// care about), diffsets (dEclat) below the first level to cut memory
// traffic, and per-equivalence-class DFS tasks scheduled on the shared
// sched.Pool. Items too sparse to justify a bitmap fall back to the sorted
// tidlists the eclat package has always used, so one mixed-representation
// engine covers both ends of the density spectrum.
//
// This file holds the kernels the class DFS runs: the innermost loops of
// every diffset, projection and column fill, so each is annotated
// //armlint:noalloc (statically allocation-free — see internal/lint) and
// writes through caller-provided destination slices with explicit indices
// instead of append. Every kernel's cost in deterministic work units is the
// slice lengths it touches, which is what the work model in vbit.go counts.
//
// That work model is frozen by TestModelPinned, so the package is pinned:
// no clocks, no randomness, no map-order leaks (wall-clock stats sites
// carry explicit determinism allows — they feed observability only):
//
//armlint:pinned
package vbit

import "math/bits"

// Word-parallel cost model constants, on the same nominal scale as the
// hashtree.Work* constants (1 unit ≈ one simple ALU op + dependent load):
// one 64-bit AND+popcount over a word, or one tidlist element touch during
// a merge. A bitmap pair-intersection over D transactions costs D/64
// WorkWordOp against a tidlist merge's ~2·density·D WorkTidOp — the factor
// behind engine.DefaultCrossoverDensity, the density at which
// engine.Planner starts choosing this engine.
const (
	WorkWordOp   = 1 // one 64-bit word AND/ANDNOT + popcount
	WorkTidOp    = 1 // one tidlist element compared or copied
	WorkItemScan = 1 // one item visited while materializing the layout
)

// AndNotInto writes a \ b (a AND NOT b) into dst and returns its
// cardinality — the bitmap diffset kernel. dst may alias a or b.
//
//armlint:noalloc
func AndNotInto(dst, a, b []uint64) int64 {
	var n int
	for i := range a {
		w := a[i] &^ b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// SetBit sets tid's bit.
//
//armlint:noalloc
func SetBit(words []uint64, tid int32) {
	words[tid>>6] |= 1 << uint(tid&63)
}

// ClearList clears every tid in list from words and returns how many bits
// were actually set before clearing — the cardinality drop when a sparse
// tidlist is subtracted from a bitmap.
//
//armlint:noalloc
func ClearList(words []uint64, list []int32) int64 {
	var cleared int64
	for _, tid := range list {
		w := tid >> 6
		m := uint64(1) << uint(tid&63)
		if words[w]&m != 0 {
			words[w] &^= m
			cleared++
		}
	}
	return cleared
}

// ExtractInto writes the set bits of words into dst as ascending tids and
// returns the count — the bitmap→tidlist demotion used when a diffset's
// cardinality drops below one tid per word. dst must have room for every
// set bit.
//
//armlint:noalloc
func ExtractInto(dst []int32, words []uint64) int {
	n := 0
	for i, w := range words {
		base := int32(i) << 6
		for w != 0 {
			dst[n] = base + int32(bits.TrailingZeros64(w))
			n++
			w &= w - 1
		}
	}
	return n
}

// ProjectTable prepares the projection onto mask. cum gets mask's prefix
// popcounts (len(cum) > len(mask)): cum[w] is the number of set bits in
// mask[:w], so the rank of a set bit g among mask's set bits is
// cum[g>>6] + |mask[g>>6] & (1<<(g&63) − 1)|. moves[w] gets the six masks
// with which the compress of Hacker's Delight §7-4 gathers the bits of a
// word that mask[w] selects into its low end, one shift distance (1, 2, 4,
// …, 32) per step.
//
//armlint:noalloc
func ProjectTable(cum []int32, moves [][6]uint64, mask []uint64) {
	var n int32
	for w, m := range mask {
		cum[w] = n
		n += int32(bits.OnesCount64(m))
		// Step i moves right by 2^i every bit whose count of zeros of mask
		// below it has bit i set: mk marks those zeros still to count, mp
		// (their prefix parity) the positions that move.
		mk := ^m << 1
		for i := range moves[w] {
			mp := mk ^ mk<<1
			mp ^= mp << 2
			mp ^= mp << 4
			mp ^= mp << 8
			mp ^= mp << 16
			mp ^= mp << 32
			mv := mp & m
			moves[w][i] = mv
			m = m ^ mv | mv>>(1<<i)
			mk &^= mp
		}
	}
	cum[len(mask)] = n
}

// ProjectInto writes src ⊆ mask re-indexed by rank within mask into dst:
// bit r of dst is set when mask's r-th set bit is set in src. cum and moves
// are mask's ProjectTable; dst must hold ⌈|mask|/64⌉ words, and every word
// is written. Each source word is compressed in six branch-free steps and
// its |mask[w]| bits appended to the output bit stream — the projection
// that lets a class's DFS run on bitmaps as wide as its anchor's tidset
// instead of the whole database.
//
//armlint:noalloc
func ProjectInto(dst, src []uint64, moves [][6]uint64, cum []int32) {
	var acc uint64 // output bits not yet stored, from bit 0
	var nb uint    // how many
	out := 0
	for w, x := range src {
		mv := &moves[w]
		t := x & mv[0]
		x = x ^ t | t>>1
		t = x & mv[1]
		x = x ^ t | t>>2
		t = x & mv[2]
		x = x ^ t | t>>4
		t = x & mv[3]
		x = x ^ t | t>>8
		t = x & mv[4]
		x = x ^ t | t>>16
		t = x & mv[5]
		x = x ^ t | t>>32
		k := uint(cum[w+1] - cum[w])
		acc |= x << nb
		nb += k
		if nb >= 64 {
			dst[out] = acc
			out++
			nb -= 64
			acc = x >> (k - nb) // the bits that did not fit; 0 when none
		}
	}
	if out < len(dst) {
		dst[out] = acc
	}
}

// ProjectListInto writes the ranks within mask of src ⊆ mask into dst as an
// ascending tidlist and returns the count — ProjectInto for a set too small
// to keep as a bitmap. dst must have room for every set bit of src.
//
//armlint:noalloc
func ProjectListInto(dst []int32, src, mask []uint64, cum []int32) int {
	n := 0
	for i, x := range src {
		for x != 0 {
			dst[n] = cum[i] + int32(bits.OnesCount64(mask[i]&(x&-x-1)))
			n++
			x &= x - 1
		}
	}
	return n
}

// FilterInto writes into dst the entries of list whose bit in words is
// clear (list \ bitmap, the mixed-representation diffset kernel) and
// returns the count. dst may alias list; len(dst) ≥ len(list).
//
//armlint:noalloc
func FilterInto(dst, list []int32, words []uint64) int {
	n := 0
	for _, tid := range list {
		if words[tid>>6]&(1<<uint(tid&63)) == 0 {
			dst[n] = tid
			n++
		}
	}
	return n
}

// IntersectInto writes a ∩ b into dst for two sorted tidlists and returns
// the count — the shared scratch-buffer intersection the eclat engine now
// runs on instead of allocating a fresh tidlist per call. len(dst) ≥
// min(len(a), len(b)); dst must not alias a or b.
//
//armlint:noalloc
func IntersectInto(dst, a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst[n] = a[i]
			n++
			i++
			j++
		}
	}
	return n
}

// DiffInto writes a \ b into dst for two sorted tidlists and returns the
// count — the tidlist diffset kernel. len(dst) ≥ len(a); dst may alias a.
//
//armlint:noalloc
func DiffInto(dst, a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			i++
			j++
			continue
		}
		dst[n] = a[i]
		n++
		i++
	}
	return n
}
