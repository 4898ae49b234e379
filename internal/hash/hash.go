// Package hash defines the cache index-function families studied in the
// paper: conventional modulo indexing, bit-selecting functions, general
// XOR functions and permutation-based XOR functions.
//
// An index function is its GF(2) matrix H: the set index of an n-bit
// block address a is a·H, and the cache simulator takes H itself. An
// XOR pairs a full-rank H with a tag for the hardware view: the pair
// (index, tag) is bijective on block addresses, so two distinct blocks
// differ in index or tag. Permutation-based functions (paper §4) keep
// the conventional tag — the high address bits — while general XOR
// functions need a compatible bit-selecting tag, which NewXOR
// constructs by completing the index matrix to full rank.
package hash

import (
	"fmt"
	"sort"
	"strings"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// XOR is a general XOR index function with an explicit bit-selecting
// tag. Index is the linear map of Matrix on the low n address bits;
// address bits above n never enter Index or Tag (paper §5: the N−n
// high-order address bits are only used to compute the tag).
type XOR struct {
	h   gf2.Matrix
	tag gf2.Matrix // n×(n−m) bit-selecting tag function
}

// NewXOR builds an XOR hash function from a full-column-rank matrix H.
// The tag function selects n−m address bits chosen so that [H|T] has
// full rank n, making (index, tag) bijective. For permutation-based H
// the constructed tag is exactly the conventional high-order selection.
func NewXOR(h gf2.Matrix) (*XOR, error) {
	if h.N < 1 || h.N > gf2.MaxBits || h.M < 0 || h.M > h.N {
		return nil, fmt.Errorf("hash: %d×%d index matrix outside 0 <= m <= n, 1 <= n <= %d: %w",
			h.N, h.M, gf2.MaxBits, xerr.ErrInvalidGeometry)
	}
	for c, col := range h.Cols {
		if col&^gf2.Mask(h.N) != 0 {
			return nil, fmt.Errorf("hash: index column %d (%#x) has bits at or above n=%d: %w",
				c, uint64(col), h.N, xerr.ErrInvalidGeometry)
		}
	}
	if h.Rank() != h.M {
		return nil, fmt.Errorf("hash: index matrix rank %d < %d; some sets would be unreachable: %w",
			h.Rank(), h.M, xerr.ErrInvalidGeometry)
	}
	tag, err := completeTag(h)
	if err != nil {
		return nil, err
	}
	return &XOR{h: h, tag: tag}, nil
}

// MustXOR is NewXOR for matrices known valid by construction (e.g. the
// identity behind Modulo); it panics on error, following the
// regexp.MustCompile convention. Code handling caller-supplied or
// searched matrices should use NewXOR and propagate the wrapped
// xerr.ErrInvalidGeometry instead.
func MustXOR(h gf2.Matrix) *XOR {
	f, err := NewXOR(h)
	if err != nil {
		panic(err)
	}
	return f
}

// completeTag greedily selects unit vectors (address bits) that extend
// the column space of H to full rank. Preferring high-order bits first
// makes the permutation-based case degenerate to the conventional tag.
func completeTag(h gf2.Matrix) (gf2.Matrix, error) {
	n, m := h.N, h.M
	span := gf2.Span(n, h.Cols...)
	positions := make([]int, 0, n-m)
	for i := n - 1; i >= 0 && len(positions) < n-m; i-- {
		u := gf2.Unit(i)
		if !span.Contains(u) {
			span = span.Extend(u)
			positions = append(positions, i)
		}
	}
	if len(positions) != n-m {
		// Cannot happen when rank(H) == m: unit vectors span GF(2)^n.
		return gf2.Matrix{}, fmt.Errorf("hash: could not complete tag (got %d of %d bits): %w",
			len(positions), n-m, xerr.ErrInvalidGeometry)
	}
	// Emit tag bits in ascending address-bit order so the
	// permutation-based case yields exactly block>>m.
	sort.Ints(positions)
	return gf2.BitSelect(n, positions), nil
}

// Index returns the m-bit set index of a block address.
func (f *XOR) Index(block uint64) uint64 {
	return uint64(f.h.Apply(gf2.Vec(block) & gf2.Mask(f.h.N)))
}

// Tag returns the tag of a block address: with Index and the address
// bits above n it identifies the block.
func (f *XOR) Tag(block uint64) uint64 {
	return uint64(f.tag.Apply(gf2.Vec(block) & gf2.Mask(f.h.N)))
}

// Matrix returns the index function's GF(2) matrix H.
func (f *XOR) Matrix() gf2.Matrix { return f.h.Clone() }

// String describes the function: its family and each set-index bit's
// XOR inputs.
func (f *XOR) String() string {
	kind := "general XOR"
	switch {
	case f.h.IsBitSelecting():
		kind = "bit-selecting"
	case f.h.IsPermutationBased():
		kind = fmt.Sprintf("permutation-based (%d-in)", f.h.MaxInputs())
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d->%d:", kind, f.h.N, f.h.M)
	for c, col := range f.h.Cols {
		fmt.Fprintf(&sb, " s%d=", c)
		first := true
		for r := 0; r < f.h.N; r++ {
			if col.Bit(r) == 1 {
				if !first {
					sb.WriteByte('^')
				}
				fmt.Fprintf(&sb, "a%d", r)
				first = false
			}
		}
		if first {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Modulo returns the conventional index function: the low m bits index
// the set, the remaining high bits form the tag.
func Modulo(n, m int) *XOR {
	return MustXOR(gf2.Identity(n, m))
}

// BitSelecting returns the bit-selecting function using the given
// address-bit positions as the set index.
func BitSelecting(n int, positions []int) (*XOR, error) {
	return NewXOR(gf2.BitSelect(n, positions))
}

// PermutationBased builds a permutation-based function: set-index bit c
// is address bit c XORed with the (possibly empty) set of high-order
// address bits in extra[c] (each given as an absolute bit position >= m).
func PermutationBased(n, m int, extra [][]int) (*XOR, error) {
	if len(extra) != m {
		return nil, fmt.Errorf("hash: need %d extra-input sets, got %d", m, len(extra))
	}
	h := gf2.Identity(n, m)
	for c, bits := range extra {
		for _, b := range bits {
			if b < m || b >= n {
				return nil, fmt.Errorf("hash: extra input bit %d for column %d outside [m,n)=[%d,%d)", b, c, m, n)
			}
			h.Cols[c] |= gf2.Unit(b)
		}
	}
	return NewXOR(h)
}

// Family labels the function families of the paper's experiments.
type Family int

const (
	// FamilyBitSelect: each index bit selects one address bit ("1-in").
	FamilyBitSelect Family = iota
	// FamilyPermutation: permutation-based XOR functions (paper §4).
	FamilyPermutation
	// FamilyGeneralXOR: unrestricted XOR matrices.
	FamilyGeneralXOR
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case FamilyBitSelect:
		return "bit-select"
	case FamilyPermutation:
		return "permutation-based"
	case FamilyGeneralXOR:
		return "general-XOR"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Belongs reports whether matrix h is a member of the family (with the
// given per-XOR input bound for permutation functions; maxInputs <= 0
// means unlimited).
func (f Family) Belongs(h gf2.Matrix, maxInputs int) bool {
	switch f {
	case FamilyBitSelect:
		return h.IsBitSelecting()
	case FamilyPermutation:
		return h.IsPermutationBased() && (maxInputs <= 0 || h.MaxInputs() <= maxInputs)
	case FamilyGeneralXOR:
		return maxInputs <= 0 || h.MaxInputs() <= maxInputs
	default:
		return false
	}
}
