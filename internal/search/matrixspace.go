package search

import (
	"xoridx/internal/gf2"
)

// climbPermutation hill-climbs over permutation-based matrices: the
// identity in the low m rows plus, per column, a set of extra inputs
// drawn from the n−m high-order address bits, at most MaxInputs−1 of
// them (MaxInputs 0 = unlimited, the paper's "16-in"). Neighbors toggle
// one (column, high bit) pair or swap one extra input for another
// within a column. Evaluation goes through the null space estimate;
// visited null spaces are memoised so equivalent matrices are scored
// once (the paper's motivation for the null-space representation).
func (s *state) climbPermutation(start int) (Result, error) {
	n, m := s.n, s.m
	maxExtra := n // effectively unlimited
	if s.opt.MaxInputs > 0 {
		maxExtra = s.opt.MaxInputs - 1
	}
	cur := gf2.Identity(n, m)
	if start > 0 {
		for c := 0; c < m; c++ {
			for b := m; b < n; b++ {
				if s.rng.Intn(n-m) == 0 && extraCount(cur.Cols[c], m) < maxExtra {
					cur.Cols[c] |= gf2.Unit(b)
				}
			}
		}
	}
	return s.climbMatrix(cur, func(h gf2.Matrix, emit func(gf2.Matrix)) {
		for c := 0; c < m; c++ {
			for b := m; b < n; b++ {
				u := gf2.Unit(b)
				if h.Cols[c]&u != 0 {
					// Remove this extra input.
					nb := h.Clone()
					nb.Cols[c] ^= u
					emit(nb)
					// Swap it for every other absent high bit.
					for b2 := m; b2 < n; b2++ {
						u2 := gf2.Unit(b2)
						if b2 != b && h.Cols[c]&u2 == 0 {
							nb2 := h.Clone()
							nb2.Cols[c] ^= u
							nb2.Cols[c] |= u2
							emit(nb2)
						}
					}
				} else if extraCount(h.Cols[c], m) < maxExtra {
					// Add this extra input.
					nb := h.Clone()
					nb.Cols[c] |= u
					emit(nb)
				}
			}
		}
	})
}

// climbGeneralLimited hill-climbs over unrestricted-form matrices with
// a per-column weight bound (general XOR with limited XOR fan-in, run
// "in exactly the same way" as the other searches per paper §3.2).
// Neighbors toggle one (column, bit) entry subject to the weight bound;
// rank-deficient states are rejected during evaluation.
func (s *state) climbGeneralLimited(start int) (Result, error) {
	n, m := s.n, s.m
	maxIn := s.opt.MaxInputs
	cur := gf2.Identity(n, m)
	if start > 0 {
		for {
			for c := 0; c < m; c++ {
				cur.Cols[c] = 0
				for w := 0; w < maxIn; w++ {
					if w == 0 || s.rng.Intn(2) == 1 {
						cur.Cols[c] |= gf2.Unit(s.rng.Intn(n))
					}
				}
			}
			if cur.Rank() == m {
				break
			}
		}
	}
	return s.climbMatrix(cur, func(h gf2.Matrix, emit func(gf2.Matrix)) {
		for c := 0; c < m; c++ {
			for b := 0; b < n; b++ {
				u := gf2.Unit(b)
				nb := h.Clone()
				nb.Cols[c] ^= u
				if nb.Cols[c] == 0 || nb.Cols[c].Weight() > maxIn {
					continue
				}
				emit(nb)
			}
		}
	})
}

// climbBitSelect hill-climbs over bit-selecting functions ("1-in"):
// states are m-subsets of the n address bits, starting from the low m
// bits (the conventional selection); neighbors swap one selected bit
// for one unselected bit.
func (s *state) climbBitSelect(start int) (Result, error) {
	n, m := s.n, s.m
	positions := make([]int, m)
	for i := range positions {
		positions[i] = i
	}
	if start > 0 {
		positions = s.rng.Perm(n)[:m]
	}
	cur := gf2.BitSelect(n, positions)
	return s.climbMatrix(cur, func(h gf2.Matrix, emit func(gf2.Matrix)) {
		var selected gf2.Vec
		for _, col := range h.Cols {
			selected |= col
		}
		for c := 0; c < h.M; c++ {
			for b := 0; b < n; b++ {
				u := gf2.Unit(b)
				if selected&u == 0 {
					nb := h.Clone()
					nb.Cols[c] = u
					emit(nb)
				}
			}
		}
	})
}

// climbMatrix is the generic steepest-descent loop over matrix states.
// neighbors must emit every neighbor of h.
func (s *state) climbMatrix(cur gf2.Matrix, neighbors func(h gf2.Matrix, emit func(gf2.Matrix))) (Result, error) {
	walkCost := uint64(1) << uint(s.n-s.m)
	res := Result{Lookups: walkCost}
	curEst := s.p.EstimateMatrix(cur)
	// Estimate memo keyed by canonical null space: distinct matrices
	// with the same null space incur the same misses (paper Eq. 2), so
	// they are scored at most once across the whole climb.
	memo := map[string]uint64{cur.NullSpace().Key(): curEst}
	// The neighbor callback cannot return an error, so a cancellation
	// observed inside it is parked in ctxErr; every later callback then
	// returns immediately and the loop surfaces the error after the
	// enumeration unwinds — still well within one hill-climbing move.
	var ctxErr error
	for {
		bestEst := curEst
		var best *gf2.Matrix
		curKey := cur.NullSpace().Key()
		seenThisRound := map[string]bool{curKey: true}
		neighbors(cur, func(nb gf2.Matrix) {
			if ctxErr != nil {
				return
			}
			if ctxErr = s.checkEvery(); ctxErr != nil {
				return
			}
			ns := nb.NullSpace()
			if ns.Dim() != s.n-s.m {
				return // rank-deficient: invalid index function
			}
			key := ns.Key()
			if seenThisRound[key] {
				return // equivalent neighbor already scored this round
			}
			seenThisRound[key] = true
			est, ok := memo[key]
			if !ok {
				est = s.p.EstimateSubspace(ns)
				memo[key] = est
				res.Evaluated++
				res.Lookups += walkCost
			} else {
				res.MemoHits++
			}
			if est < bestEst {
				bestEst = est
				best = &nb
			}
		})
		if ctxErr != nil {
			// Interrupted: return the best state reached so far, tagged
			// Degraded, alongside the error — the anytime contract.
			res.Matrix = cur
			res.Estimated = curEst
			res.Degraded = true
			return res, ctxErr
		}
		if best == nil {
			break
		}
		cur = *best
		curEst = bestEst
		res.Iterations++
		s.emit(res.Iterations, res.Evaluated, curEst)
	}
	res.Matrix = cur
	res.Estimated = curEst
	return res, nil
}

// extraCount counts inputs above the identity bit in a permutation
// column (bits at positions >= m).
func extraCount(col gf2.Vec, m int) int {
	return (col >> uint(m)).Weight()
}
