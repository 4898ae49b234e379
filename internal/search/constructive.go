package search

import (
	"context"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// Constructive covering heuristic, in the spirit of the bit-selecting
// constructions of Abraham & Agusleo (paper ref. [1], from frequent
// strides) and Givargis (ref. [4], profile-driven): instead of
// searching a design space, walk the conflict vectors in descending
// count and patch the function so each one leaves the null space,
// greedily choosing the single permutation-column edit that lowers the
// Eq. 4 estimate the most. Much cheaper than hill climbing (it looks at
// O(hot × m × (n−m)) candidates total) and a useful baseline for how
// much the paper's full search actually buys.

// ConstructiveCtx builds a permutation-based function with at most
// maxInputs inputs per XOR (0 = unlimited) by covering the hotVectors
// most frequent conflict vectors. Cancellation is checked once per hot
// vector (each vector scores at most m·(n−m) candidate edits, so the
// latency bound is a fraction of a move).
func ConstructiveCtx(ctx context.Context, p *profile.Profile, m int, maxInputs, hotVectors int) (Result, error) {
	n := p.N
	if m <= 0 || m >= n {
		return Result{}, errOutOfRange(m, n)
	}
	if hotVectors <= 0 {
		hotVectors = 64
	}
	maxExtra := n
	if maxInputs > 0 {
		maxExtra = maxInputs - 1
	}
	h := gf2.Identity(n, m)
	res := Result{Baseline: p.EstimateConventional(m)}
	cur := p.EstimateMatrix(h)

	for _, vc := range p.HotVectors(hotVectors) {
		if err := xerr.Check(ctx); err != nil {
			// Anytime contract: the partially-patched function is still
			// a valid index matrix — return it tagged Degraded.
			res.Matrix = h
			res.Estimated = cur
			res.Degraded = true
			return res, err
		}
		v := vc.Vec
		if h.Apply(v) != 0 {
			continue // already outside the null space
		}
		// Try every single-edit toggle of an extra input; keep the one
		// with the lowest resulting estimate, if it improves.
		bestEst := cur
		bestCol, bestBit := -1, -1
		for c := 0; c < m; c++ {
			for b := m; b < n; b++ {
				u := gf2.Unit(b)
				adding := h.Cols[c]&u == 0
				if adding && int((h.Cols[c]>>uint(m)).Weight()) >= maxExtra {
					continue
				}
				h.Cols[c] ^= u
				if h.Apply(v) != 0 { // the edit must actually cover v
					est := p.EstimateMatrix(h)
					res.Evaluated++
					if est < bestEst {
						bestEst = est
						bestCol, bestBit = c, b
					}
				}
				h.Cols[c] ^= u
			}
		}
		if bestCol >= 0 {
			h.Cols[bestCol] ^= gf2.Unit(bestBit)
			cur = bestEst
			res.Iterations++
		}
	}
	res.Matrix = h
	res.Estimated = cur
	return res, nil
}
