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
// greedily taking the single permutation-column toggle that lowers the
// Eq. 4 estimate the most. Each patch is one step of the permutation
// climb restricted to the toggles that cover the vector, so it looks
// at O(hot × m × (n−m)) candidates in total and is a useful baseline
// for how much the paper's full search actually buys.

// hotVectors is how many of the most frequent conflict vectors the
// constructive heuristic covers.
const hotVectors = 64

// constructive builds a permutation-based function with at most
// Options.MaxInputs inputs per XOR (0 = unlimited) by covering the
// hotVectors most frequent conflict vectors. Cancellation is checked
// once per hot vector and every ctxCheckEvery candidates within a
// step, as in the climbs.
func (s *state) constructive(int) (Result, error) {
	cur, next := s.permutationSpace(0)
	res := Result{Matrix: cur, Estimated: s.nb.load(cur), Lookups: uint64(len(s.nb.support))}
	for _, vc := range s.p.HotVectors(hotVectors) {
		if err := xerr.Check(s.ctx); err != nil {
			return res, err // anytime contract: the partial function is still valid
		}
		v, h := vc.Vec, res.Matrix
		if h.Apply(v) != 0 {
			continue // already outside the null space
		}
		// Every column has even parity with v, so toggling one extra
		// input gives the new column odd parity, and covers v, exactly
		// when v has that input.
		covers := func(j int, col gf2.Vec) bool {
			t := col ^ h.Cols[j]
			return t&(t-1) == 0 && t&v != 0
		}
		if _, err := s.step(&res, next, covers); err != nil {
			return res, err
		}
	}
	return res, nil
}
