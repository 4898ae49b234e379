package optimal

import (
	"context"
	"fmt"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// This file addresses the paper's closing observation (§6.1/§7):
// "Algorithms for optimal XOR-functions are not known, but our analysis
// suggests that there is potential room for improvement." For small
// dimensions the design space of null spaces — the Gaussian binomial
// [n choose n-m]_2 (paper Eq. 3) — is enumerable outright, giving the
// true optimum of the Eq. 4 estimate. That yields two things the paper
// could not measure directly: how far the hill climber lands from the
// estimate-optimal function, and how often the estimate-optimal
// function is also simulation-optimal.

// EnumerateSubspaces calls fn for every d-dimensional subspace of
// GF(2)^n exactly once, presenting each as its canonical
// reduced-row-echelon basis (descending leading bit). fn may keep the
// slice only until it returns. Enumeration order is deterministic.
//
// The enumeration is the textbook RREF parameterisation: choose the
// pivot positions p_1 > p_2 > ... > p_d, then fill every entry that is
// (a) below the row's pivot, and (b) not itself a pivot column, with
// all 2^free combinations. Each subspace has exactly one RREF basis,
// so there is no deduplication step.
func EnumerateSubspaces(n, d int, fn func(basis []gf2.Vec) bool) error {
	if d < 0 || d > n || n > 30 {
		return fmt.Errorf("optimal: cannot enumerate dim-%d subspaces of GF(2)^%d: %w", d, n, xerr.ErrInvalidOptions)
	}
	if d == 0 {
		fn(nil)
		return nil
	}
	basis := make([]gf2.Vec, d)
	// Choose the pivot positions first (descending), then fill the free
	// entries: each subspace is produced exactly once.
	pivotSet := make([]int, d)
	var choosePivots func(idx, next int) bool
	choosePivots = func(idx, next int) bool {
		if idx == d {
			return fillFree(n, d, pivotSet, basis, fn)
		}
		for p := next; p >= d-idx-1; p-- {
			pivotSet[idx] = p
			if !choosePivots(idx+1, p-1) {
				return false
			}
		}
		return true
	}
	choosePivots(0, n-1)
	return nil
}

// fillFree enumerates all assignments of the free entries for a fixed
// pivot set and invokes fn for each resulting basis. Free entries of
// row i are the non-pivot positions strictly below pivot[i].
func fillFree(n, d int, pivots []int, basis []gf2.Vec, fn func([]gf2.Vec) bool) bool {
	var pivotMask gf2.Vec
	for _, p := range pivots {
		pivotMask |= gf2.Unit(p)
	}
	// Collect (row, bitPosition) slots in a fixed order.
	type slot struct {
		row int
		bit int
	}
	var slots []slot
	for i, p := range pivots {
		basis[i] = gf2.Unit(p)
		for b := 0; b < p; b++ {
			if pivotMask&gf2.Unit(b) == 0 {
				slots = append(slots, slot{i, b})
			}
		}
	}
	if len(slots) > 40 {
		// 2^40+ combinations: refuse rather than spin forever.
		panic(fmt.Sprintf("optimal: %d free slots is too many to enumerate", len(slots)))
	}
	total := uint64(1) << uint(len(slots))
	for x := uint64(0); x < total; x++ {
		// Gray-code step: flip one slot per iteration.
		if x > 0 {
			i := trailingZeros64(x)
			s := slots[i]
			basis[s.row] ^= gf2.Unit(s.bit)
		}
		if !fn(basis) {
			return false
		}
	}
	// Reset rows (clear free bits) for the next pivot set.
	for i, p := range pivots {
		basis[i] = gf2.Unit(p)
	}
	return true
}

func trailingZeros64(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// XORResult reports an exhaustive XOR-function search outcome.
type XORResult struct {
	Matrix    gf2.Matrix // a matrix realising the optimal null space
	Estimated uint64     // its Eq. 4 estimate
	Evaluated uint64     // subspaces scored (= [n choose n-m]_2)
}

// ExhaustiveXOR finds the hash function minimising the Eq. 4 estimate
// over ALL XOR functions, by enumerating every null space of dimension
// n−m. Feasible only for small dimensions (the count is the Gaussian
// binomial — e.g. ~109 K for n=10, m=5, ~2.7 M for n=12, m=6); this is
// the "optimal XOR algorithm" the paper notes does not exist for
// realistic sizes, provided here as a calibration tool for the
// heuristic search. ctx is checked every 8 K subspaces (each
// evaluation walks the full conflict table, so the check overhead is
// noise).
func ExhaustiveXOR(ctx context.Context, p *profile.Profile, m int) (XORResult, error) {
	n := p.N
	d := n - m
	if m <= 0 || m >= n {
		return XORResult{}, fmt.Errorf("optimal: m=%d out of range: %w", m, xerr.ErrInvalidOptions)
	}
	// Refuse design spaces beyond ~2^27 subspaces (minutes of work):
	// the whole point of the paper's heuristic is that realistic sizes
	// (n=16: 6.3e19 null spaces) are out of exhaustive reach.
	spaceSize := gf2.GaussianBinomial(n, d)
	if spaceSize.BitLen() > 27 {
		return XORResult{}, fmt.Errorf("optimal: n=%d m=%d has %v null spaces; too many for exhaustive search: %w", n, m, spaceSize, xerr.ErrInvalidOptions)
	}
	best := XORResult{Estimated: ^uint64(0)}
	bestBasis := make([]gf2.Vec, 0, d)
	var ctxErr error
	err := EnumerateSubspaces(n, d, func(basis []gf2.Vec) bool {
		if best.Evaluated&8191 == 0 {
			if ctxErr = xerr.Check(ctx); ctxErr != nil {
				return false
			}
		}
		best.Evaluated++
		est := p.EstimateBasis(basis)
		if est < best.Estimated {
			best.Estimated = est
			bestBasis = append(bestBasis[:0], basis...)
		}
		return true
	})
	if err != nil {
		return XORResult{}, err
	}
	if ctxErr != nil {
		return XORResult{}, ctxErr
	}
	best.Matrix = gf2.MatrixWithNullSpace(gf2.Span(n, bestBasis...))
	return best, nil
}
