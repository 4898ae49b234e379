package gf2

import (
	"math/rand"
	"testing"
)

// TestLinearMapMatchesApply runs every width, including the ones that
// end mid-byte, against Matrix.Apply on random full-width addresses and
// on each unit vector.
func TestLinearMapMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= MaxBits; n++ {
		for _, m := range []int{0, 1, n / 2, n, MaxBits} {
			h := NewMatrix(n, m)
			for c := range h.Cols {
				h.Cols[c] = Vec(rng.Uint64())
			}
			lm := NewLinearMap(h)
			for i := 0; i < 200+MaxBits; i++ {
				a := Vec(rng.Uint64())
				if i < MaxBits {
					a = Unit(i)
				}
				if got, want := lm.Apply(a), h.Apply(a&Mask(n)); got != want {
					t.Fatalf("%d×%d: Apply(%#x) = %#x, want %#x", n, m, uint64(a), uint64(got), uint64(want))
				}
			}
		}
	}
}
