package gf2

import "fmt"

// Coset arithmetic for the incremental miss estimator (DESIGN.md §10).
//
// A canonical RREF basis splits GF(2)^n into pivot coordinates (the
// leading bits of the basis vectors) and free coordinates (everything
// else). Reducing a vector against the basis zeroes its pivot
// coordinates, so the residue is supported on the free positions only
// and identifies the vector's coset of span(basis). GatherBits packs
// that residue into a dense coset index; ScatterBits is its inverse on
// canonical representatives. The null-space climb uses them to
// enumerate a hyperplane's coset representatives in canonical order.

// Reduce XORs v against the basis vectors to eliminate their leading
// bits, returning the canonical residue of v modulo span(basis). The
// basis must have distinct leading bits (any basis produced by Span or
// insertBasis qualifies). Reduce is linear in v, and Reduce(v) == 0 iff
// v ∈ span(basis).
func Reduce(v Vec, basis []Vec) Vec {
	return reduce(v, basis)
}

// PivotMask returns the OR of the leading bits of the basis vectors —
// the pivot coordinates of the row space.
func PivotMask(basis []Vec) Vec {
	var pivots Vec
	for _, b := range basis {
		pivots |= highBit(b)
	}
	return pivots
}

// FreePositions lists, in ascending order, the bit positions of [0, n)
// that are not the leading bit of any basis vector. For a canonical
// RREF basis these are exactly the coordinates a residue (see Reduce)
// can be supported on; there are n - len(basis) of them.
func FreePositions(n int, basis []Vec) []int {
	pivots := PivotMask(basis)
	out := make([]int, 0, n-len(basis))
	for i := 0; i < n; i++ {
		if pivots.Bit(i) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// ScatterBits distributes the low len(positions) bits of x onto the
// given bit positions: bit i of x lands at positions[i].
func ScatterBits(x uint64, positions []int) Vec {
	var v Vec
	for i, p := range positions {
		if x>>uint(i)&1 == 1 {
			v |= Unit(p)
		}
	}
	return v
}

// GatherBits collects the bits of v at the given positions into the low
// bits of the result: bit i of the result is v's bit at positions[i].
// For vectors supported on the positions it inverts ScatterBits.
func GatherBits(v Vec, positions []int) uint64 {
	var x uint64
	for i, p := range positions {
		x |= uint64(v.Bit(p)) << uint(i)
	}
	return x
}

// CosetMembers appends every vector of the coset rep ⊕ s to dst and
// returns it. Like Members the walk is Gray-coded (consecutive entries
// differ by one basis vector); the first entry is rep itself (masked to
// the ambient width). Size() must be small enough to enumerate.
func (s Subspace) CosetMembers(rep Vec, dst []Vec) []Vec {
	d := s.Dim()
	if d > 30 {
		panic(fmt.Sprintf("gf2: refusing to enumerate 2^%d coset members", d))
	}
	cur := rep & Mask(s.N)
	dst = append(dst, cur)
	for i := uint64(1); i < uint64(1)<<uint(d); i++ {
		cur ^= s.Basis[trailingZeros(i)]
		dst = append(dst, cur)
	}
	return dst
}
