package search

import (
	"xoridx/internal/gf2"
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

// hotVectors is how many of the most frequent conflict vectors the
// constructive heuristic covers.
const hotVectors = 64

// constructive builds a permutation-based function with at most
// Options.MaxInputs inputs per XOR (0 = unlimited) by covering the
// hotVectors most frequent conflict vectors. Cancellation is checked
// once per hot vector (each vector scores at most m·(n−m) candidate
// edits, so the latency bound is a fraction of a move).
func (s *state) constructive(int) (Result, error) {
	p, n, m := s.p, s.n, s.m
	maxExtra := s.maxExtra()
	h := gf2.Identity(n, m)
	var res Result
	cur := p.EstimateMatrix(h)
	var err error
	for _, vc := range p.HotVectors(hotVectors) {
		if err = xerr.Check(s.ctx); err != nil {
			break // anytime contract: the partial function is still valid
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
				if h.Cols[c]&u == 0 && extraCount(h.Cols[c], m) >= maxExtra {
					continue
				}
				h.Cols[c] ^= u
				if h.Apply(v) != 0 { // the edit must actually cover v
					est := p.EstimateMatrix(h)
					res.Evaluated++
					res.Lookups += uint64(1) << uint(n-m)
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
	return res, err
}
