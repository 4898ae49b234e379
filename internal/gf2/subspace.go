package gf2

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"
	"strings"
)

// Subspace is a linear subspace of GF(2)^n held as a canonical basis.
//
// The basis is kept in reduced row echelon form (RREF) sorted by
// descending leading bit: every basis vector has a distinct leading
// (highest set) bit, and that bit is zero in all other basis vectors.
// The RREF basis of a subspace is unique, so two Subspaces represent the
// same set of vectors iff their basis slices are element-wise equal.
// That canonical form is what lets the design-space search deduplicate
// hash functions by null space (paper §2: 3.4e38 matrices collapse to
// 6.3e19 null spaces at n=16, m=8).
type Subspace struct {
	N     int   // ambient dimension
	Basis []Vec // canonical RREF basis, descending leading bit
}

// ZeroSubspace returns the trivial subspace {0} of GF(2)^n.
func ZeroSubspace(n int) Subspace {
	checkDim(n)
	return Subspace{N: n}
}

// FullSpace returns GF(2)^n itself.
func FullSpace(n int) Subspace {
	checkDim(n)
	s := Subspace{N: n}
	for i := n - 1; i >= 0; i-- {
		s.Basis = append(s.Basis, Unit(i))
	}
	return s
}

// Span returns the smallest subspace of GF(2)^n containing all the given
// vectors.
func Span(n int, vecs ...Vec) Subspace {
	checkDim(n)
	mask := Mask(n)
	basis := make([]Vec, 0, len(vecs))
	for _, v := range vecs {
		v &= mask
		if r := reduce(v, basis); r != 0 {
			basis = insertBasis(basis, r)
		}
	}
	return Subspace{N: n, Basis: basis}
}

// SpanUnits returns span(e_lo, ..., e_{hi-1}).
func SpanUnits(n, lo, hi int) Subspace {
	vecs := make([]Vec, 0, hi-lo)
	for i := lo; i < hi; i++ {
		vecs = append(vecs, Unit(i))
	}
	return Span(n, vecs...)
}

// Dim returns the dimension of the subspace.
func (s Subspace) Dim() int { return len(s.Basis) }

// Size returns the number of vectors in the subspace, 2^Dim, saturating
// at math.MaxUint64 when Dim() == MaxBits: 2^64 does not fit a uint64,
// and the former `1 << 64` silently wrapped to 0 there, turning "the
// whole space" into "empty" for any caller comparing or formatting the
// count. Callers needing the exact value at full width use SizeBig.
func (s Subspace) Size() uint64 {
	d := s.Dim()
	if d >= MaxBits {
		return math.MaxUint64
	}
	return uint64(1) << uint(d)
}

// SizeBig returns the exact number of vectors in the subspace, 2^Dim,
// without the uint64 saturation of Size (Dim can legitimately reach 64
// since the address width was lifted to 64 bits).
func (s Subspace) SizeBig() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(s.Dim()))
}

// Contains reports whether v is a member of the subspace.
func (s Subspace) Contains(v Vec) bool {
	return reduce(v&Mask(s.N), s.Basis) == 0
}

// Key returns a canonical, comparable key for the subspace: equal keys
// iff equal subspaces. Suitable for map keys in visited sets.
func (s Subspace) Key() string {
	var sb strings.Builder
	sb.Grow(2 + 17*len(s.Basis))
	fmt.Fprintf(&sb, "%d:", s.N)
	for _, b := range s.Basis {
		fmt.Fprintf(&sb, "%x,", uint64(b))
	}
	return sb.String()
}

// Equal reports whether two subspaces are identical.
func (s Subspace) Equal(o Subspace) bool {
	if s.N != o.N || len(s.Basis) != len(o.Basis) {
		return false
	}
	for i := range s.Basis {
		if s.Basis[i] != o.Basis[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of s.
func (s Subspace) Clone() Subspace {
	b := make([]Vec, len(s.Basis))
	copy(b, s.Basis)
	return Subspace{N: s.N, Basis: b}
}

// Intersect returns the intersection of two subspaces of the same
// ambient space, computed with the Zassenhaus algorithm specialised to
// GF(2): eliminate on pairs (u | u) for u in s and (w | 0) for w in o;
// rows whose left half becomes zero have right halves spanning s∩o.
func (s Subspace) Intersect(o Subspace) Subspace {
	if s.N != o.N {
		panic("gf2: intersect of subspaces with different ambient dimension")
	}
	if s.N*2 > MaxBits {
		return s.intersectWide(o)
	}
	n := s.N
	type row struct{ left, right Vec }
	rows := make([]row, 0, len(s.Basis)+len(o.Basis))
	for _, u := range s.Basis {
		rows = append(rows, row{u, u})
	}
	for _, w := range o.Basis {
		rows = append(rows, row{w, 0})
	}
	// Gaussian elimination on the left halves; track right halves.
	var inter []Vec
	var pivots []row
	for _, r := range rows {
		for _, p := range pivots {
			if r.left&highBit(p.left) != 0 {
				r.left ^= p.left
				r.right ^= p.right
			}
		}
		if r.left != 0 {
			pivots = append(pivots, r)
		} else if r.right != 0 {
			inter = append(inter, r.right)
		}
	}
	return Span(n, inter...)
}

// intersectWide handles ambient dimensions over MaxBits/2 by the
// dual-space route: s∩o = (s^⊥ + o^⊥)^⊥.
func (s Subspace) intersectWide(o Subspace) Subspace {
	sp := s.Complement()
	op := o.Complement()
	sum := Span(s.N, append(append([]Vec{}, sp.Basis...), op.Basis...)...)
	return sum.Complement()
}

// Sum returns s + o, the smallest subspace containing both.
func (s Subspace) Sum(o Subspace) Subspace {
	if s.N != o.N {
		panic("gf2: sum of subspaces with different ambient dimension")
	}
	return Span(s.N, append(append([]Vec{}, s.Basis...), o.Basis...)...)
}

// Complement returns the orthogonal complement s^⊥ with respect to the
// standard GF(2) inner product: all x with <x, b> = 0 for every basis
// vector b. dim(s^⊥) = N - dim(s). For a hash matrix H, the columns of
// any matrix with null space V are exactly a basis of V^⊥, which is how
// a searched null space is converted back into hardware (MatrixWithNullSpace).
func (s Subspace) Complement() Subspace {
	return Kernel(s.N, s.Basis)
}

// Kernel returns {x ∈ GF(2)^n : <x, row> = 0 for every row}, the kernel
// of the linear map whose rows are the given constraint vectors.
func Kernel(n int, constraints []Vec) Subspace {
	checkDim(n)
	mask := Mask(n)
	// Row-reduce the constraints.
	rows := make([]Vec, 0, len(constraints))
	for _, c := range constraints {
		c &= mask
		if r := reduce(c, rows); r != 0 {
			rows = insertBasis(rows, r)
		}
	}
	// Pivot columns are the leading bits of the reduced rows.
	var pivotMask Vec
	for _, r := range rows {
		pivotMask |= highBit(r)
	}
	// One kernel basis vector per free (non-pivot) coordinate.
	basis := make([]Vec, 0, n-len(rows))
	for j := 0; j < n; j++ {
		free := Unit(j)
		if pivotMask&free != 0 {
			continue
		}
		v := free
		// Solve for pivot coordinates so that every constraint row is
		// orthogonal to v. Process rows in increasing leading-bit order
		// (i.e. reverse of the stored descending order) so later pivots
		// are not disturbed... order does not actually matter because
		// rows are fully reduced: each pivot appears in exactly one row.
		for _, r := range rows {
			if Dot(v, r) == 1 {
				v ^= highBit(r)
			}
		}
		basis = append(basis, v)
	}
	return Span(n, basis...)
}

// Members appends every vector of the subspace to dst and returns it.
// The vectors are produced in Gray-code order of basis combinations, so
// consecutive members differ by a single basis vector; the first member
// is always 0. Size() must be small enough to enumerate.
func (s Subspace) Members(dst []Vec) []Vec {
	d := s.Dim()
	if d > 30 {
		panic(fmt.Sprintf("gf2: refusing to enumerate 2^%d subspace members", d))
	}
	cur := Vec(0)
	dst = append(dst, cur)
	for i := uint64(1); i < uint64(1)<<uint(d); i++ {
		// Gray code: flip the basis vector indexed by the number of
		// trailing zeros of i.
		cur ^= s.Basis[trailingZeros(i)]
		dst = append(dst, cur)
	}
	return dst
}

// MatrixWithNullSpace returns an n×m matrix whose null space is exactly
// v, where m = n - dim(v). The columns are the canonical basis of v^⊥;
// any invertible recombination of them yields an equivalent function.
func MatrixWithNullSpace(v Subspace) Matrix {
	comp := v.Complement()
	m := len(comp.Basis)
	cols := make([]Vec, m)
	// Use ascending leading bit so low-numbered index bits come from
	// low-order address structure, which reads naturally.
	for i, b := range comp.Basis {
		cols[m-1-i] = b
	}
	return MatrixFromCols(v.N, cols)
}

// Hyperplanes appends every (dim-1)-dimensional subspace of s to dst and
// returns it, in the order Hyperplane(1), ..., Hyperplane(2^dim - 1).
// Used to generate hill-climbing neighbors (paper §3.2: neighbors share
// a dim-1 intersection).
func (s Subspace) Hyperplanes(dst []Subspace) []Subspace {
	d := s.Dim()
	if d > 30 {
		panic("gf2: hyperplane enumeration dimension too large")
	}
	for f := uint64(1); f < uint64(1)<<uint(d); f++ {
		dst = append(dst, s.Hyperplane(f))
	}
	return dst
}

// Hyperplane returns the kernel within s of the nonzero linear
// functional f on s, where bit i of f is the functional's value on
// Basis[i]: the span of the basis combinations with even functional
// value. Its basis: pick a basis vector b_k with f_k = 1; the kernel is
// spanned by {b_i : f_i = 0} ∪ {b_i ^ b_k : f_i = 1, i != k}.
func (s Subspace) Hyperplane(f uint64) Subspace {
	k := trailingZeros(f) // f_k == 1
	vecs := make([]Vec, 0, s.Dim()-1)
	for i, b := range s.Basis {
		switch {
		case i == k:
		case f>>uint(i)&1 == 1:
			vecs = append(vecs, b^s.Basis[k])
		default:
			vecs = append(vecs, b)
		}
	}
	return Span(s.N, vecs...)
}

// Extend returns span(s, v). If v ∈ s the result equals s.
func (s Subspace) Extend(v Vec) Subspace {
	r := reduce(v&Mask(s.N), s.Basis)
	if r == 0 {
		return s
	}
	basis := make([]Vec, len(s.Basis))
	copy(basis, s.Basis)
	return Subspace{N: s.N, Basis: insertBasis(basis, r)}
}

// String renders the subspace as its basis vectors, one per line.
func (s Subspace) String() string {
	if len(s.Basis) == 0 {
		return "{0}"
	}
	lines := make([]string, len(s.Basis))
	for i, b := range s.Basis {
		lines[i] = b.StringN(s.N)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// trailingZeros is math/bits.TrailingZeros64 narrowed to the Gray-code
// walks' use (x != 0); the hand-rolled bit loop it replaces was a
// measurable fraction of the 2^d-step walk bodies.
func trailingZeros(x uint64) int {
	return bits.TrailingZeros64(x)
}

func checkDim(n int) {
	if n <= 0 || n > MaxBits {
		panic(fmt.Sprintf("gf2: ambient dimension %d out of range", n))
	}
}
