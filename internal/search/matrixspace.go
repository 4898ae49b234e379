package search

import (
	"xoridx/internal/gf2"
)

// neighbours is a matrix-space family's neighbour generator: it emits
// every neighbour of h, in a fixed order, as the column j it replaces
// and that column's new value.
type neighbours func(h gf2.Matrix, emit func(j int, col gf2.Vec))

// permutationSpace is the space of permutation-based matrices: the
// identity in the low m rows plus, per column, a set of extra inputs
// drawn from the n−m high-order address bits, at most MaxInputs−1 of
// them (MaxInputs 0 = unlimited, the paper's "16-in"). Neighbors toggle
// one (column, high bit) pair or swap one extra input for another
// within a column.
func (s *state) permutationSpace(start int) (gf2.Matrix, neighbours) {
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
	return cur, func(h gf2.Matrix, emit func(int, gf2.Vec)) {
		for c := 0; c < m; c++ {
			col := h.Cols[c]
			for b := m; b < n; b++ {
				u := gf2.Unit(b)
				if col&u != 0 {
					// Remove this extra input.
					emit(c, col^u)
					// Swap it for every other absent high bit.
					for b2 := m; b2 < n; b2++ {
						u2 := gf2.Unit(b2)
						if b2 != b && col&u2 == 0 {
							emit(c, col^u|u2)
						}
					}
				} else if extraCount(col, m) < maxExtra {
					// Add this extra input.
					emit(c, col|u)
				}
			}
		}
	}
}

// generalLimitedSpace is the space of unrestricted-form matrices with a
// per-column weight bound (general XOR with limited XOR fan-in, run "in
// exactly the same way" as the other searches per paper §3.2).
// Neighbors toggle one (column, bit) entry subject to the weight bound.
func (s *state) generalLimitedSpace(start int) (gf2.Matrix, neighbours) {
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
	return cur, func(h gf2.Matrix, emit func(int, gf2.Vec)) {
		for c := 0; c < m; c++ {
			for b := 0; b < n; b++ {
				col := h.Cols[c] ^ gf2.Unit(b)
				if col == 0 || col.Weight() > maxIn {
					continue
				}
				emit(c, col)
			}
		}
	}
}

// bitSelectSpace is the space of bit-selecting functions ("1-in"):
// states are m-subsets of the n address bits, starting from the low m
// bits (the conventional selection); neighbors swap one selected bit
// for one unselected bit.
func (s *state) bitSelectSpace(start int) (gf2.Matrix, neighbours) {
	n, m := s.n, s.m
	positions := make([]int, m)
	for i := range positions {
		positions[i] = i
	}
	if start > 0 {
		positions = s.rng.Perm(n)[:m]
	}
	return gf2.BitSelect(n, positions), func(h gf2.Matrix, emit func(int, gf2.Vec)) {
		var selected gf2.Vec
		for _, col := range h.Cols {
			selected |= col
		}
		for c := 0; c < h.M; c++ {
			for b := 0; b < n; b++ {
				if u := gf2.Unit(b); selected&u == 0 {
					emit(c, u)
				}
			}
		}
	}
}

// climbMatrix is the steepest-descent loop over matrix states, taking
// the first strict minimum in emit order. A neighbour H′ replaces
// column j of H with h′_j, so it scores the part of syndrome groups 0
// and e_j that h′_j maps to 0 (DESIGN.md §10). A rank-deficient H′ has
// the null space K of H's other columns, which contains N(H), so it
// never strictly beats the current state and needs no rank test.
func (s *state) climbMatrix(cur gf2.Matrix, next neighbours) (Result, error) {
	nb := s.nb
	curEst := nb.load(cur)
	res := Result{Lookups: uint64(len(nb.support))}
	// The neighbor callback cannot return an error, so a cancellation
	// observed inside it is parked in ctxErr; every later callback then
	// returns immediately and the loop surfaces the error after the
	// enumeration unwinds — still well within one hill-climbing move.
	var ctxErr error
	for {
		zero, _ := nb.group(0)
		bestEst, bestJ, bestCol := curEst, -1, gf2.Vec(0)
		next(cur, func(j int, col gf2.Vec) {
			if ctxErr != nil {
				return
			}
			if ctxErr = s.checkEvery(); ctxErr != nil {
				return
			}
			unit, _ := nb.group(1 << uint(j))
			res.Evaluated++
			res.Lookups += uint64(len(zero) + len(unit))
			if est := kernelSum(zero, col) + kernelSum(unit, col); est < bestEst {
				bestEst, bestJ, bestCol = est, j, col
			}
		})
		if ctxErr != nil || bestJ < 0 {
			// Interrupted, the best state reached so far is returned
			// Degraded alongside the error: the anytime contract.
			res.Degraded = ctxErr != nil
			break
		}
		cur = cur.Clone()
		cur.Cols[bestJ] = bestCol
		curEst = nb.load(cur)
		res.Lookups += uint64(len(nb.support))
		res.Iterations++
		s.emit(res.Iterations, res.Evaluated, curEst)
	}
	res.Matrix = cur
	res.Estimated = curEst
	return res, ctxErr
}

// extraCount counts inputs above the identity bit in a permutation
// column (bits at positions >= m).
func extraCount(col gf2.Vec, m int) int {
	return (col >> uint(m)).Weight()
}
