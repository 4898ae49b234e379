package hash

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xoridx/internal/gf2"
)

// quickFunc generates a random valid hash function from a random
// family: modulo, bit-select, permutation-based, or general XOR.
type quickFunc struct{ F *XOR }

// Generate implements quick.Generator.
func (quickFunc) Generate(r *rand.Rand, size int) reflect.Value {
	n, m := 12, 5
	var f *XOR
	switch r.Intn(4) {
	case 0:
		f = Modulo(n, m)
	case 1:
		f, _ = BitSelecting(n, r.Perm(n)[:m])
	case 2:
		extra := make([][]int, m)
		for c := range extra {
			for b := m; b < n; b++ {
				if r.Intn(3) == 0 {
					extra[c] = append(extra[c], b)
				}
			}
		}
		f, _ = PermutationBased(n, m, extra)
	default:
		for {
			h := gf2.NewMatrix(n, m)
			for c := range h.Cols {
				h.Cols[c] = gf2.Vec(r.Uint64()) & gf2.Mask(n)
			}
			if h.Rank() == m {
				f = MustXOR(h)
				break
			}
		}
	}
	return reflect.ValueOf(quickFunc{F: f})
}

var quickCfg = &quick.Config{MaxCount: 80}

func TestQuickIndexTagBijective(t *testing.T) {
	// For every generated function, (index, tag) is injective on a
	// random sample of distinct addresses.
	f := func(qf quickFunc, a, b uint16) bool {
		fn := qf.F
		x := uint64(a) & 0xFFF
		y := uint64(b) & 0xFFF
		if x == y {
			return true
		}
		return fn.Index(x) != fn.Index(y) || fn.Tag(x) != fn.Tag(y)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndexIsLinear(t *testing.T) {
	f := func(qf quickFunc, a, b uint16) bool {
		fn := qf.F
		x := uint64(a) & 0xFFF
		y := uint64(b) & 0xFFF
		return fn.Index(x^y) == fn.Index(x)^fn.Index(y)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPermutationRunsAreConflictFree(t *testing.T) {
	// Whenever the generated function happens to be permutation-based,
	// an aligned run of 2^m blocks maps to 2^m distinct sets (paper §4).
	f := func(qf quickFunc, baseRaw uint16) bool {
		fn := qf.F
		if !fn.Matrix().IsPermutationBased() {
			return true
		}
		m := fn.Matrix().M
		base := (uint64(baseRaw) & 0xFFF) &^ (1<<uint(m) - 1)
		seen := make(map[uint64]bool, 1<<uint(m))
		for off := uint64(0); off < 1<<uint(m); off++ {
			s := fn.Index(base | off)
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFamilyPredicatesConsistent(t *testing.T) {
	// Bit-selecting implies expressible as permutation-based only for
	// the modulo selection; more robustly: bit-selecting implies
	// MaxInputs == 1, and permutation-based implies every aligned run
	// property holds (checked above). Here: predicate/fan-in coherence.
	f := func(qf quickFunc) bool {
		h := qf.F.Matrix()
		if h.IsBitSelecting() && h.MaxInputs() != 1 {
			return false
		}
		if h.MaxInputs() == 0 {
			return false // full-rank functions always have inputs
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIndexMatchesLinearMap checks the contract the simulator
// relies on: Index(b) == Matrix().Apply(b mod 2^n) for any 64-bit block
// address, so the tabulated matrix indexes exactly as the function does.
func TestQuickIndexMatchesLinearMap(t *testing.T) {
	f := func(qf quickFunc, block uint64) bool {
		fn := qf.F
		h := fn.Matrix()
		return fn.Index(block) == uint64(gf2.NewLinearMap(h).Apply(gf2.Vec(block))) &&
			fn.Index(block) == uint64(h.Apply(gf2.Vec(block)&gf2.Mask(h.N)))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
