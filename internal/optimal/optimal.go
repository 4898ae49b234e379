// Package optimal implements the exhaustive bit-selecting baselines the
// paper compares against (§6.1, Table 3).
//
// Patel et al. (ICCAD 2004) observed that the number of bit-selecting
// index functions is only C(n, m), small enough to simulate all of them
// and pick the true optimum. ExactBitSelect does exactly that: one pass
// over the trace updating a direct-mapped tag store per candidate mask.
// It is intentionally honest about the cost — the paper notes the
// optimal algorithm is "very slow" and was only run on the short
// PowerStone traces.
//
// ProfileBestBitSelect evaluates all 2^n bit masks at once against a
// conflict-vector profile using a sum-over-subsets (zeta) transform:
// for a selection mask S, the estimated misses are the sum of
// misses(v) over all v with v AND S == 0, i.e. the subset sum of the
// table at the complement of S. This scores every bit-selecting
// function in O(2^n · n) operations and is the profile-based analogue
// of Patel's simultaneous evaluation.
package optimal

import (
	"context"
	"fmt"
	"math/bits"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// BitSelectResult reports an exhaustive bit-select search outcome.
type BitSelectResult struct {
	Mask      uint64 // selected address-bit mask (popcount == m)
	Misses    uint64 // misses (exact) or estimated conflicts (profile)
	Evaluated int    // number of candidate functions scored
}

// Positions expands the mask into ascending bit positions.
func (r BitSelectResult) Positions() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if r.Mask>>uint(i)&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// Matrix returns the winning function as a gf2 bit-select matrix.
func (r BitSelectResult) Matrix(n int) gf2.Matrix {
	return gf2.BitSelect(n, r.Positions())
}

// ExactBitSelect simulates every C(n, m) bit-selecting direct-mapped
// cache over the block-address sequence and returns the function with
// the fewest total misses. Blocks must fit in n <= 16 bits. Candidates
// are simulated one at a time with per-mask byte-wise PEXT tables, so
// the working set per candidate (tag array + two 256-entry tables)
// stays L1-resident; total time is C(n,m) passes over the trace —
// honest about the cost the paper reports ("the optimal algorithm is
// very slow"). ctx is checked once per candidate mask (each candidate
// is a full pass over the trace, so per-candidate granularity bounds
// cancellation latency to one simulation pass while costing nothing
// measurable).
func ExactBitSelect(ctx context.Context, blocks []uint64, n, m int) (BitSelectResult, error) {
	if m <= 0 || m >= n || n > 16 {
		return BitSelectResult{}, fmt.Errorf("optimal: unsupported dimensions n=%d m=%d: %w", n, m, xerr.ErrInvalidOptions)
	}
	for _, b := range blocks {
		if b>>uint(n) != 0 {
			return BitSelectResult{}, fmt.Errorf("optimal: block %#x exceeds %d bits: %w", b, n, xerr.ErrInvalidOptions)
		}
	}
	masks := enumerateMasks(n, m)
	sets := 1 << uint(m)
	tags := make([]uint64, sets)
	var loTab, hiTab [256]uint16
	best := BitSelectResult{Misses: ^uint64(0), Evaluated: len(masks)}
	for _, mask := range masks {
		if err := xerr.Check(ctx); err != nil {
			return BitSelectResult{}, err
		}
		// Byte-wise PEXT decomposition: pext(b, mask) =
		// loTab[b&0xFF] | hiTab[b>>8] << popcount(mask&0xFF).
		loBits := bits.OnesCount64(mask & 0xFF)
		for v := 0; v < 256; v++ {
			loTab[v] = uint16(pext(uint64(v), mask&0xFF))
			hiTab[v] = uint16(pext(uint64(v)<<8, mask&^0xFF)) << uint(loBits)
		}
		for i := range tags {
			tags[i] = 0
		}
		var misses uint64
		for _, b := range blocks {
			idx := loTab[b&0xFF] | hiTab[b>>8]
			if tags[idx] != b+1 { // tags store block+1; 0 = invalid
				misses++
				tags[idx] = b + 1
			}
		}
		if misses < best.Misses {
			best.Misses = misses
			best.Mask = mask
		}
	}
	return best, nil
}

// ProfileBestBitSelect returns the bit-selecting function minimising
// the Eq. 4 estimate, scoring all C(n,m) candidates through a single
// sum-over-subsets transform of the conflict table. ctx is checked
// once per zeta-transform layer and once per 8 K candidate masks.
func ProfileBestBitSelect(ctx context.Context, p *profile.Profile, m int) (BitSelectResult, error) {
	n := p.N
	if m <= 0 || m >= n {
		return BitSelectResult{}, fmt.Errorf("optimal: m=%d out of range: %w", m, xerr.ErrInvalidOptions)
	}
	if p.Table == nil {
		// The zeta transform needs the dense 2^n table; a sparse profile
		// is by definition too wide for it.
		return BitSelectResult{}, fmt.Errorf("optimal: profile n=%d uses the sparse backend; the subset-sum transform needs a flat table (n <= %d): %w",
			n, profile.MaxFlatBits, xerr.ErrInvalidOptions)
	}
	// sos[x] = sum of Table[v] over v subset of x.
	sos := make([]uint64, len(p.Table))
	copy(sos, p.Table)
	for bit := 0; bit < n; bit++ {
		if err := xerr.Check(ctx); err != nil {
			return BitSelectResult{}, err
		}
		step := 1 << uint(bit)
		for x := range sos {
			if x&step != 0 {
				sos[x] += sos[x^step]
			}
		}
	}
	full := uint64(len(p.Table) - 1)
	best := BitSelectResult{Misses: ^uint64(0)}
	for mask := uint64(0); mask <= full; mask++ {
		if mask&8191 == 0 {
			if err := xerr.Check(ctx); err != nil {
				return BitSelectResult{}, err
			}
		}
		if bits.OnesCount64(mask) != m {
			continue
		}
		est := sos[full&^mask] // sum over v with v & mask == 0
		best.Evaluated++
		if est < best.Misses {
			best.Misses = est
			best.Mask = mask
		}
	}
	return best, nil
}

// enumerateMasks lists all n-bit masks with popcount m, ascending.
func enumerateMasks(n, m int) []uint64 {
	var out []uint64
	limit := uint64(1) << uint(n)
	// Gosper's hack: iterate masks with exactly m bits set.
	v := uint64(1)<<uint(m) - 1
	for v < limit {
		out = append(out, v)
		// next bit permutation
		t := v | (v - 1)
		v = (t + 1) | (((^t & (t + 1)) - 1) >> uint(bits.TrailingZeros64(v)+1))
		if v == 0 {
			break
		}
	}
	return out
}

// pext extracts the bits of v selected by mask, packing them into the
// low bits of the result (software PEXT).
func pext(v, mask uint64) uint64 {
	var out uint64
	shift := 0
	for mask != 0 {
		low := mask & (^mask + 1)
		if v&low != 0 {
			out |= 1 << uint(shift)
		}
		shift++
		mask ^= low
	}
	return out
}
