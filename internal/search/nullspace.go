package search

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// climbNullSpace performs steepest-descent hill climbing over null
// spaces of dimension n−m, the paper's search for general XOR
// functions. start==0 begins at the conventional null space
// span(e_m..e_{n−1}), or at Options.Warm's null space when it is set;
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
	case s.opt.Warm.Cols != nil:
		cur = s.opt.Warm.NullSpace()
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
	at      []int // the syndrome sort's digit counts
	n, d    int
	cur     gf2.Subspace  // N(H)
	key     gf2.LinearMap // v's key: syndrome Hv << d | coordinates in N's basis

	// The null-space climb's 2^d-word rows: F̂_0 and, per φ, the least
	// coset sum over the nonzero groups. transform cuts the nonzero
	// groups into ranges; range i streams its groups through rows[i]
	// and folds them into minZ (range 0) or mins[i−1].
	f0, minZ   []int64
	rows, mins [][]int64
	// Set by transform: group 0 is support[:starts[0]], and nonzero
	// group g is support[starts[g]:starts[g+1]].
	starts []int
	sums   []cosetSum // resolve's table of coset sums under the winning φ
}

// cosetSum holds the two coset sums of one nonzero group r under a
// hyperplane W_φ: sum[b] sums the entries with popcount(key & φ) ≡ b.
type cosetSum struct {
	syn uint64
	sum [2]uint64
}

// fanOutWords is the least transform work, in row words (nonzero
// groups × 2^d), that transform spreads over more than one goroutine.
// fanOutRowWords bounds the words of the rows and least sums that the
// ranges hold together, two 2^d-word rows per range: at d = 18
// (n = 28, 4 KB) at most 4 ranges run, whatever GOMAXPROCS is.
const (
	fanOutWords    = 1 << 14
	fanOutRowWords = 1 << 21
)

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
	// Stable LSD radix sort on the syndrome in the fewest passes of at
	// most 16 bits, the digit as even as the passes allow.
	passes := (nb.n - nb.d + 15) / 16
	digit := (nb.n - nb.d + passes - 1) / passes
	if len(nb.at) != 1<<uint(digit)+1 {
		nb.at = make([]int, 1<<uint(digit)+1)
	}
	mask := uint64(1)<<uint(digit) - 1
	for shift := nb.d; shift < nb.n; shift += digit {
		at := nb.at
		clear(at)
		for _, k := range nb.keys {
			at[k>>uint(shift)&mask+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for i, k := range nb.keys {
			b := k >> uint(shift) & mask
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

// transform fills F̂_0 and minZ from the loaded groups. A nonzero group
// with at most one entry has a coset sum of 0 under every hyperplane,
// and no sum is negative, so when one exists (or a nonzero syndrome has
// no entry at all) minZ is 0 everywhere and no nonzero group needs a
// transform. Otherwise fold streams the nonzero groups through the
// rows, over as many ranges as GOMAXPROCS once the work pays for them
// and the rows fit fanOutRowWords.
func (nb *neighbourhood) transform() {
	size := 1 << uint(nb.d)
	if len(nb.f0) != size {
		nb.f0, nb.minZ = make([]int64, size), make([]int64, size)
		nb.rows, nb.mins = nil, nil
	}
	d := uint(nb.d)
	if nb.starts == nil {
		// One group per entry at most, and per syndrome.
		most := len(nb.keys)
		if m := nb.n - nb.d; m < 31 {
			most = min(most, 1<<uint(m))
		}
		nb.starts = make([]int, 0, most+1)
	}
	nb.starts = nb.starts[:0]
	for i, k := range nb.keys {
		if k>>d != 0 && (len(nb.starts) == 0 || k>>d != nb.keys[i-1]>>d) {
			nb.starts = append(nb.starts, i)
		}
	}
	nb.starts = append(nb.starts, len(nb.keys))
	clear(nb.f0)
	nb.fill(nb.f0, 0, nb.starts[0])
	walshHadamard(nb.f0)
	groups := len(nb.starts) - 1
	full := 0 // nonzero syndromes with at least two entries
	for g := 0; g < groups; g++ {
		if nb.starts[g+1]-nb.starts[g] > 1 {
			full++
		}
	}
	if full < 1<<uint(nb.n-nb.d)-1 {
		clear(nb.minZ)
		return
	}
	k := 1
	if groups<<d >= fanOutWords {
		k = min(runtime.GOMAXPROCS(0), max(1, fanOutRowWords>>(d+1)))
	}
	nb.fold(nb.starts, k)
}

// fold sets minZ to the least coset sum over the groups that bounds
// delimits, group g being support[bounds[g]:bounds[g+1]], cutting them
// into at most k contiguous ranges that run concurrently. Each range
// streams its groups through its own row (fill, transform, fold,
// clear) into its own minima, and the ranges' minima merge exactly,
// so the result does not depend on k.
func (nb *neighbourhood) fold(bounds []int, k int) {
	size := len(nb.f0)
	groups := len(bounds) - 1
	k = max(1, min(k, groups))
	for len(nb.rows) < k {
		nb.rows = append(nb.rows, make([]int64, size))
		if len(nb.rows) > 1 {
			nb.mins = append(nb.mins, make([]int64, size))
		}
	}
	part := func(i int) []int { return bounds[i*groups/k : (i+1)*groups/k+1] }
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nb.foldRange(part(i), nb.rows[i], nb.mins[i-1])
		}()
	}
	nb.foldRange(part(0), nb.rows[0], nb.minZ)
	wg.Wait()
	for _, m := range nb.mins[:k-1] {
		for phi, z := range m {
			nb.minZ[phi] = min(nb.minZ[phi], z)
		}
	}
}

// foldRange sets minZ[φ] to the least coset sum (F̂_r(0) − |F̂_r(φ)|)/2
// over the groups bounds delimits, streaming each through row.
func (nb *neighbourhood) foldRange(bounds []int, row, minZ []int64) {
	for phi := range minZ {
		minZ[phi] = math.MaxInt64
	}
	for g := 0; g+1 < len(bounds); g++ {
		nb.fill(row, bounds[g], bounds[g+1])
		walshHadamard(row)
		for phi := 1; phi < len(row); phi++ {
			// min over b of (F̂(0) ± F̂(φ)) / 2
			if z := (row[0] - max(row[phi], -row[phi])) / 2; z < minZ[phi] {
				minZ[phi] = z
			}
		}
		clear(row)
	}
}

// fill adds the counts of support[lo:hi] into row at their coordinates.
func (nb *neighbourhood) fill(row []int64, lo, hi int) {
	mask := uint64(len(row) - 1)
	for i, vc := range nb.support[lo:hi] {
		row[nb.keys[lo+i]&mask] += int64(vc.Count)
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

// resolve builds the neighbour span(W_φ, rep) scoring est with the
// smallest representative rep in W_φ's enumeration order — the
// canonical coset representatives scattered from x = 1, 2, ... onto
// W_φ's free positions — so ties fall as a per-candidate scan would
// break them. A representative scores S_φ(0, 0) plus the sum of its own
// coset (r, b) of W_φ, where r is its syndrome (0 exactly when it lies
// in N) and b = popcount(key & φ) mod 2. One pass over the groups
// transform delimited puts every nonzero group's two coset sums in an
// open-addressed table of at most min(4·groups, 2^m) slots; the key is
// linear, so the scan steps it from x − 1 to x with one XOR.
func (nb *neighbourhood) resolve(phi, est uint64) gf2.Subspace {
	d := uint(nb.d)
	groups := len(nb.starts) - 1
	// The table has over twice as many slots as groups, but never more
	// than the 2^m syndromes, where it is indexed by syndrome directly.
	logSize := min(bits.Len(uint(2*groups)), nb.n-nb.d)
	size := 1 << uint(logSize)
	if cap(nb.sums) < size {
		nb.sums = make([]cosetSum, size)
	}
	nb.sums = nb.sums[:size]
	clear(nb.sums)
	dense := logSize == nb.n-nb.d
	// slot finds syn's slot, or the empty one (syndrome 0) it would take.
	slot := func(syn uint64) *cosetSum {
		i := syn
		if !dense {
			i = syn * 0x9e3779b97f4a7c15 >> uint(64-logSize)
		}
		for nb.sums[i].syn != 0 && nb.sums[i].syn != syn {
			i = (i + 1) & uint64(size-1)
		}
		return &nb.sums[i]
	}
	for g := 0; g < groups; g++ {
		lo, hi := nb.starts[g], nb.starts[g+1]
		c := slot(nb.keys[lo] >> d)
		c.syn = nb.keys[lo] >> d
		for i, vc := range nb.support[lo:hi] {
			c.sum[bits.OnesCount64(nb.keys[lo+i]&phi)&1] += vc.Count
		}
	}
	want := est - uint64(nb.inHyperplane(phi))
	w := nb.cur.Hyperplane(phi)
	free := gf2.FreePositions(nb.n, w.Basis)
	// step[t] is the key of the units at free[0..t]: going from x − 1
	// to x flips exactly those bits, t being x's trailing zeros.
	var step [64]uint64
	var key uint64
	for i, pos := range free {
		key ^= uint64(nb.key.Apply(gf2.Unit(pos)))
		step[i] = key
	}
	key = 0
	for x := uint64(1); x < 1<<uint(len(free)); x++ {
		key ^= step[bits.TrailingZeros64(x)]
		if key>>d == 0 {
			continue // rep ∈ N
		}
		// An absent group's slot is empty and its cosets sum to 0.
		if slot(key >> d).sum[bits.OnesCount64(key&phi)&1] == want {
			return w.Extend(gf2.ScatterBits(x, free))
		}
	}
	panic("search: no neighbour scores the transform's minimum")
}

// walshHadamard transforms f in place: f(φ) becomes
// Σ_c (−1)^popcount(c&φ) · f(c). Each pass applies two butterfly
// levels h and 2h at once, so the row is swept half as often; an odd
// number of levels ends with one plain butterfly pass.
func walshHadamard(f []int64) {
	h := 1
	for ; h<<2 <= len(f); h <<= 2 {
		for i := 0; i < len(f); i += h << 2 {
			a := f[i : i+h]
			b := f[i+h : i+2*h][:len(a)]
			c := f[i+2*h : i+3*h][:len(a)]
			d := f[i+3*h : i+4*h][:len(a)]
			for j := range a {
				s0, d0 := a[j]+b[j], a[j]-b[j]
				s1, d1 := c[j]+d[j], c[j]-d[j]
				a[j], b[j], c[j], d[j] = s0+s1, d0+d1, s0-s1, d0-d1
			}
		}
	}
	if h < len(f) {
		a, b := f[:h], f[h:][:h]
		for j := range a {
			a[j], b[j] = a[j]+b[j], a[j]-b[j]
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
