package search

import (
	"math"
	"math/bits"
	"sort"

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
// Walsh–Hadamard transform per syndrome group (DESIGN.md §10) and takes
// the first strict minimum in (hyperplane index, representative) order,
// so the trajectory is the one a per-candidate scan of the
// neighbourhood walks.
func (s *state) climbNullSpace(start int) (Result, error) {
	n, m := s.n, s.m
	d := n - m
	var res Result
	var cur gf2.Subspace
	switch {
	case start > 0:
		cur = s.randomSubspace(d)
	case s.warm != nil:
		cur = *s.warm // warm start (ConstructWarm)
	default:
		cur = gf2.SpanUnits(n, m, n)
	}
	nb := s.nb
	curEst := nb.load(gf2.MatrixWithNullSpace(cur))
	res.Lookups = uint64(len(nb.support))
	// Every hyperplane W of cur has 2^(m+1) cosets, two of which lie in
	// cur (W itself and cur∖W); each other coset is one neighbour.
	perMove := int((uint64(1)<<uint(d) - 1) * (uint64(1)<<uint(m+1) - 2))
	var err error
	for {
		if err = xerr.Check(s.ctx); err != nil {
			// Interrupted: the best state so far is still a valid matrix.
			res.Degraded = true
			break
		}
		nb.transform()
		res.Evaluated += perMove
		phi, est := nb.best(curEst)
		if phi == 0 {
			break // local optimum (paper §3.2: algorithm stops)
		}
		cur = nb.resolve(phi, est)
		curEst = nb.load(gf2.MatrixWithNullSpace(cur))
		res.Lookups += uint64(len(nb.support))
		res.Iterations++
		s.emit(res.Iterations, res.Evaluated, curEst)
	}
	res.Matrix = gf2.MatrixWithNullSpace(cur)
	res.Estimated = curEst
	return res, err
}

// neighbourhood is the one scorer of every climb (DESIGN.md §10). Once
// per move, load groups the histogram support by its syndrome Hv under
// the current function H; group 0 is N(H) itself. A matrix-space
// neighbour sums two groups (kernelSum); transform prices every
// null-space neighbour from one Walsh–Hadamard row per group.
type neighbourhood struct {
	support []profile.VectorCount // grouped by ascending syndrome after load
	keys    []uint64              // keys[i] is support[i]'s key
	spare   []profile.VectorCount // scratch for the syndrome sort
	spareK  []uint64
	n, d    int
	cur     gf2.Subspace  // N(H)
	key     gf2.LinearMap // v's key: syndrome Hv << d | coordinates in N's basis

	// The null-space climb's 2^d-word rows: F̂_0, one streamed F̂_r,
	// and per φ the least coset sum over the nonzero groups.
	f0, row, minZ []int64
}

// load groups the support under the full-rank function h and returns
// h's estimate, the sum of group 0.
func (nb *neighbourhood) load(h gf2.Matrix) uint64 {
	nb.cur = h.NullSpace()
	nb.d = nb.cur.Dim()
	// N's basis is RREF, so coordinate i of v is v's bit at the leading
	// bit of Basis[i].
	cols := make([]gf2.Vec, 0, nb.n)
	for _, b := range nb.cur.Basis {
		cols = append(cols, gf2.Vec(1)<<uint(bits.Len64(uint64(b))-1))
	}
	nb.key = gf2.NewLinearMap(gf2.MatrixFromCols(nb.n, append(cols, h.Cols...)))
	if len(nb.keys) != len(nb.support) {
		nb.keys, nb.spareK = make([]uint64, len(nb.support)), make([]uint64, len(nb.support))
		nb.spare = make([]profile.VectorCount, len(nb.support))
	}
	for i, vc := range nb.support {
		nb.keys[i] = uint64(nb.key.Apply(vc.Vec))
	}
	// Stable LSD radix sort on the syndrome, one byte per pass.
	for shift := nb.d; shift < nb.n; shift += 8 {
		var at [257]int
		for _, k := range nb.keys {
			at[int(uint8(k>>uint(shift)))+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for i, k := range nb.keys {
			b := uint8(k >> uint(shift))
			nb.spare[at[b]], nb.spareK[at[b]] = nb.support[i], k
			at[b]++
		}
		nb.support, nb.spare = nb.spare, nb.support
		nb.keys, nb.spareK = nb.spareK, nb.keys
	}
	var est uint64
	g, _ := nb.group(0)
	for _, vc := range g {
		est += vc.Count
	}
	return est
}

// group returns the loaded support entries whose syndrome is syn, and
// their keys.
func (nb *neighbourhood) group(syn uint64) ([]profile.VectorCount, []uint64) {
	d := uint(nb.d)
	lo := sort.Search(len(nb.keys), func(i int) bool { return nb.keys[i]>>d >= syn })
	hi := lo + sort.Search(len(nb.keys)-lo, func(i int) bool { return nb.keys[lo+i]>>d > syn })
	return nb.support[lo:hi], nb.keys[lo:hi]
}

// kernelSum sums the entries of g that col maps to 0.
func kernelSum(g []profile.VectorCount, col gf2.Vec) uint64 {
	var sum uint64
	for _, vc := range g {
		if bits.OnesCount64(uint64(vc.Vec&col))&1 == 0 {
			sum += vc.Count
		}
	}
	return sum
}

// transform fills F̂_0 and minZ from the loaded groups, streaming each
// nonzero group through one reused row: fill, transform, fold, clear.
// A nonzero group with at most one entry has a coset sum of 0 under
// every hyperplane, and no sum is negative, so when one exists (or a
// nonzero syndrome has no entry at all) minZ is 0 everywhere and no
// nonzero group needs a transform.
func (nb *neighbourhood) transform() {
	size := 1 << uint(nb.d)
	if len(nb.f0) != size {
		nb.f0, nb.row, nb.minZ = make([]int64, size), make([]int64, size), make([]int64, size)
	}
	mask := uint64(size - 1)
	fill := func(row []int64, g []profile.VectorCount, keys []uint64) {
		for i, vc := range g {
			row[keys[i]&mask] += int64(vc.Count)
		}
		walshHadamard(row)
	}
	clear(nb.f0)
	g, keys := nb.group(0)
	fill(nb.f0, g, keys)
	// full counts the nonzero syndromes with at least two entries.
	full := uint64(0)
	nb.groups(func(g []profile.VectorCount, _ []uint64) {
		if len(g) > 1 {
			full++
		}
	})
	if full < uint64(1)<<uint(nb.n-nb.d)-1 {
		clear(nb.minZ)
		return
	}
	for phi := range nb.minZ {
		nb.minZ[phi] = math.MaxInt64
	}
	nb.groups(func(g []profile.VectorCount, keys []uint64) {
		fill(nb.row, g, keys)
		for phi := 1; phi < size; phi++ {
			// min over b of (F̂(0) ± F̂(φ)) / 2
			if z := (nb.row[0] - max(nb.row[phi], -nb.row[phi])) / 2; z < nb.minZ[phi] {
				nb.minZ[phi] = z
			}
		}
		clear(nb.row)
	})
}

// groups calls fn on every loaded group with a nonzero syndrome.
func (nb *neighbourhood) groups(fn func(g []profile.VectorCount, keys []uint64)) {
	d := uint(nb.d)
	for lo := 0; lo < len(nb.keys); {
		syn := nb.keys[lo] >> d
		hi := lo + 1
		for hi < len(nb.keys) && nb.keys[hi]>>d == syn {
			hi++
		}
		if syn != 0 {
			fn(nb.support[lo:hi], nb.keys[lo:hi])
		}
		lo = hi
	}
}

// inHyperplane returns the sum of W_φ's own coset (r, b) = (0, 0).
func (nb *neighbourhood) inHyperplane(phi uint64) int64 {
	return (nb.f0[0] + nb.f0[phi]) / 2
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

// score returns the estimate of the neighbour span(W_φ, v), v ∉ cur:
// W_φ's own coset plus the entries of v's group in v's coset of W_φ.
func (nb *neighbourhood) score(phi uint64, v gf2.Vec) uint64 {
	sum := uint64(nb.inHyperplane(phi))
	key := uint64(nb.key.Apply(v))
	g, keys := nb.group(key >> uint(nb.d))
	for i, vc := range g {
		if bits.OnesCount64((keys[i]^key)&phi)&1 == 0 {
			sum += vc.Count
		}
	}
	return sum
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
