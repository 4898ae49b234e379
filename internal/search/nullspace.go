package search

import (
	"math"
	"math/bits"
	"slices"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// climbNullSpace performs steepest-descent hill climbing over null
// spaces of dimension n−m, the paper's search for general XOR
// functions. start==0 begins at the conventional null space
// span(e_m..e_{n−1}), or at the warm null space when one is set;
// start>0 begins at a random subspace of the same dimension. Each move
// scores every neighbour of the current null space from one
// Walsh–Hadamard transform per residue (DESIGN.md §10) and takes the first strict minimum in (hyperplane index,
// representative) order, so the trajectory is the one a per-candidate
// scan of the neighbourhood walks.
func (s *state) climbNullSpace(start int) (Result, error) {
	n, m := s.n, s.m
	d := n - m
	var res Result
	var cur gf2.Subspace
	switch {
	case start > 0:
		cur = s.randomSubspace(d)
		res.Lookups = uint64(1) << uint(d)
	case s.warm != nil:
		// Warm start (ConstructWarm). Like the baseline estimate, its
		// start estimate is left out of Lookups.
		cur = *s.warm
	default:
		cur = gf2.SpanUnits(n, m, n)
		res.Lookups = uint64(1) << uint(d)
	}
	curEst := s.p.EstimateSubspace(cur)
	// degraded tags the best-so-far state for an interrupted return:
	// the caller still gets a valid matrix.
	degraded := func() Result {
		res.Matrix = gf2.MatrixWithNullSpace(cur)
		res.Estimated = curEst
		res.Degraded = true
		return res
	}
	// Every hyperplane W of cur has 2^(m+1) cosets, two of which lie in
	// cur (W itself and cur∖W); each other coset is one neighbour.
	perMove := int((uint64(1)<<uint(d) - 1) * (uint64(1)<<uint(m+1) - 2))
	nb := newNeighbourhood(s.support, n, d)
	for {
		if err := xerr.Check(s.ctx); err != nil {
			return degraded(), err
		}
		nb.load(cur)
		res.Lookups += uint64(len(s.support))
		res.Evaluated += perMove
		phi, est := nb.best(curEst)
		if phi == 0 {
			break // local optimum (paper §3.2: algorithm stops)
		}
		cur = nb.resolve(phi, est)
		curEst = est
		res.Iterations++
		s.emit(res.Iterations, res.Evaluated, curEst)
	}
	res.Matrix = gf2.MatrixWithNullSpace(cur)
	res.Estimated = curEst
	return res, nil
}

// neighbourhood scores every neighbour span(W_φ, v) of one null space N
// (DESIGN.md §10). Each support vector v splits into its residue r
// modulo N and its coordinates c in N's RREF basis; the misses at
// (r, c) fill a table f_r, and rows holds each table's length-2^d
// Walsh–Hadamard transform F̂_r. The functional φ ≠ 0 on c picks the
// hyperplane W_φ = cur.Hyperplane(φ), and coset (r, b) of W_φ sums to
// (F̂_r(0) + (−1)^b·F̂_r(φ)) / 2 — exact integers, so every score equals
// the Eq. 4 estimate of the neighbour. The scratch space is sized by
// the residues present and reused across moves.
type neighbourhood struct {
	support []profile.VectorCount
	n, d    int
	cur     gf2.Subspace
	lead    []gf2.Vec       // leading bit of cur.Basis[i]: coordinate i of c
	row     map[gf2.Vec]int // residue r → its row of rows; row 0 is r = 0
	rows    []int64         // F̂_r, 2^d entries per present residue
	minZ    []int64         // per φ: the least coset sum over (r ≠ 0, b)
}

func newNeighbourhood(support []profile.VectorCount, n, d int) *neighbourhood {
	return &neighbourhood{
		support: support, n: n, d: d,
		lead: make([]gf2.Vec, d),
		row:  make(map[gf2.Vec]int),
		minZ: make([]int64, 1<<uint(d)),
	}
}

// split returns v's residue modulo cur and its coordinates in cur's
// basis. The basis is RREF, so coordinate i is v's bit at the leading
// bit of Basis[i], and clearing it with Basis[i] leaves the residue.
func (nb *neighbourhood) split(v gf2.Vec) (gf2.Vec, uint64) {
	var c uint64
	for i, l := range nb.lead {
		if v&l != 0 {
			v ^= nb.cur.Basis[i]
			c |= 1 << uint(i)
		}
	}
	return v, c
}

// load fills and transforms the tables of null space cur: one sweep of
// the support, then d·2^d additions per residue present.
func (nb *neighbourhood) load(cur gf2.Subspace) {
	nb.cur = cur
	for i, b := range cur.Basis {
		nb.lead[i] = gf2.Vec(1) << uint(bits.Len64(uint64(b))-1)
	}
	size := 1 << uint(nb.d)
	clear(nb.row)
	nb.row[0] = 0
	nb.rows = nb.grow(nb.rows[:0])
	for _, vc := range nb.support {
		r, c := nb.split(vc.Vec)
		i, ok := nb.row[r]
		if !ok {
			i = len(nb.rows) / size
			nb.row[r] = i
			nb.rows = nb.grow(nb.rows)
		}
		nb.rows[i*size+int(c)] += int64(vc.Count)
	}
	for off := 0; off < len(nb.rows); off += size {
		walshHadamard(nb.rows[off : off+size])
	}
	// A nonzero residue with no support has coset sums 0 and no sum is
	// negative, so then the minimum is 0 for every φ.
	least := int64(math.MaxInt64)
	if uint64(len(nb.row)-1) < uint64(1)<<uint(nb.n-nb.d)-1 {
		least = 0
	}
	for phi := range nb.minZ {
		nb.minZ[phi] = least
	}
	for off := size; off < len(nb.rows); off += size {
		f := nb.rows[off : off+size]
		for phi := 1; phi < size; phi++ {
			// min over b of (F̂(0) ± F̂(φ)) / 2
			if z := (f[0] - abs(f[phi])) / 2; z < nb.minZ[phi] {
				nb.minZ[phi] = z
			}
		}
	}
}

// grow appends one zeroed table of 2^d entries to rows.
func (nb *neighbourhood) grow(rows []int64) []int64 {
	size := 1 << uint(nb.d)
	rows = slices.Grow(rows, size)[:len(rows)+size]
	clear(rows[len(rows)-size:])
	return rows
}

// inHyperplane returns the sum of W_φ's own coset (r, b) = (0, 0).
func (nb *neighbourhood) inHyperplane(phi uint64) int64 {
	return (nb.rows[0] + nb.rows[phi]) / 2
}

// best returns the first φ, in hyperplane order, whose best neighbour
// strictly beats curEst and every earlier φ, with that neighbour's
// score; φ = 0 when no neighbour improves on curEst.
func (nb *neighbourhood) best(curEst uint64) (uint64, uint64) {
	var bestPhi uint64
	bestEst := curEst
	for phi := uint64(1); phi < uint64(len(nb.minZ)); phi++ {
		if est := uint64(nb.inHyperplane(phi) + nb.minZ[phi]); est < bestEst {
			bestPhi, bestEst = phi, est
		}
	}
	return bestPhi, bestEst
}

// score returns the estimate of the neighbour span(W_φ, v), v ∉ cur.
func (nb *neighbourhood) score(phi uint64, v gf2.Vec) uint64 {
	sum := nb.inHyperplane(phi)
	r, c := nb.split(v)
	if i, ok := nb.row[r]; ok {
		f := nb.rows[i<<uint(nb.d):]
		if bits.OnesCount64(c&phi)&1 == 0 {
			sum += (f[0] + f[phi]) / 2
		} else {
			sum += (f[0] - f[phi]) / 2
		}
	}
	return uint64(sum)
}

// resolve builds the neighbour span(W_φ, rep) scoring est with the
// smallest representative rep in W_φ's enumeration order — the
// canonical coset representatives scattered from x = 1, 2, ... onto
// W_φ's free positions — so ties fall as a per-candidate scan would
// break them.
func (nb *neighbourhood) resolve(phi, est uint64) gf2.Subspace {
	w := nb.cur.Hyperplane(phi)
	free := gf2.FreePositions(nb.n, w.Basis)
	for x := uint64(1); ; x++ {
		rep := gf2.ScatterBits(x, free)
		if !nb.cur.Contains(rep) && nb.score(phi, rep) == est {
			return w.Extend(rep)
		}
	}
}

// walshHadamard transforms f in place: f(φ) becomes
// Σ_c (−1)^popcount(c&φ) · f(c).
func walshHadamard(f []int64) {
	for h := 1; h < len(f); h <<= 1 {
		for i := 0; i < len(f); i += h << 1 {
			for j := i; j < i+h; j++ {
				f[j], f[j+h] = f[j]+f[j+h], f[j]-f[j+h]
			}
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// randomSubspace returns a uniform-ish random d-dimensional subspace.
func (s *state) randomSubspace(d int) gf2.Subspace {
	for {
		vecs := make([]gf2.Vec, d)
		for i := range vecs {
			vecs[i] = gf2.Vec(s.rng.Uint64()) & gf2.Mask(s.n)
		}
		sp := gf2.Span(s.n, vecs...)
		if sp.Dim() == d {
			return sp
		}
	}
}
