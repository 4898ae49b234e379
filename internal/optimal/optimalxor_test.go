package optimal

import (
	"context"
	"math/big"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/search"
)

func TestEnumerateSubspacesCountsMatchGaussianBinomial(t *testing.T) {
	cases := []struct{ n, d int }{
		{4, 0}, {4, 1}, {4, 2}, {4, 3}, {4, 4},
		{6, 3}, {7, 2}, {8, 4}, {9, 3},
	}
	for _, c := range cases {
		count := int64(0)
		seen := map[string]bool{}
		err := EnumerateSubspaces(c.n, c.d, func(basis []gf2.Vec) bool {
			count++
			sp := gf2.Span(c.n, basis...)
			if sp.Dim() != c.d {
				t.Fatalf("n=%d d=%d: enumerated basis spans dim %d", c.n, c.d, sp.Dim())
			}
			key := sp.Key()
			if seen[key] {
				t.Fatalf("n=%d d=%d: subspace enumerated twice:\n%v", c.n, c.d, sp)
			}
			seen[key] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want := gf2.GaussianBinomial(c.n, c.d)
		if want.Cmp(big.NewInt(count)) != 0 {
			t.Errorf("n=%d d=%d: enumerated %d, Gaussian binomial %v", c.n, c.d, count, want)
		}
	}
}

func TestEnumerateSubspacesCanonicalBases(t *testing.T) {
	// Every emitted basis must already be the canonical RREF basis.
	err := EnumerateSubspaces(7, 3, func(basis []gf2.Vec) bool {
		sp := gf2.Span(7, basis...)
		for i := range basis {
			if sp.Basis[i] != basis[i] {
				t.Fatalf("emitted basis not canonical: got %v, canonical %v", basis, sp.Basis)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateSubspacesEarlyStop(t *testing.T) {
	count := 0
	err := EnumerateSubspaces(8, 3, func([]gf2.Vec) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestEnumerateSubspacesValidation(t *testing.T) {
	if err := EnumerateSubspaces(8, 9, nil); err == nil {
		t.Error("d > n should fail")
	}
	if err := EnumerateSubspaces(40, 2, nil); err == nil {
		t.Error("huge n should fail")
	}
	// d == 0: exactly the trivial subspace.
	count := 0
	if err := EnumerateSubspaces(5, 0, func(b []gf2.Vec) bool {
		count++
		return len(b) == 0
	}); err != nil || count != 1 {
		t.Errorf("d=0 enumeration wrong: count=%d err=%v", count, err)
	}
}

func TestExhaustiveXORBeatsOrMatchesEverything(t *testing.T) {
	// Build a conflict-rich profile and verify the exhaustive optimum
	// is a lower bound for every family's heuristic result.
	var blocks []uint64
	for rep := 0; rep < 30; rep++ {
		for i := uint64(0); i < 24; i++ {
			blocks = append(blocks, i*16, i*16^0x155)
		}
	}
	n, m := 9, 5
	p := profile.Build(blocks, n, 1<<uint(m))
	opt, err := ExhaustiveXOR(context.Background(), p, m)
	if err != nil {
		t.Fatal(err)
	}
	want := gf2.GaussianBinomial(n, n-m)
	if want.Cmp(big.NewInt(int64(opt.Evaluated))) != 0 {
		t.Fatalf("evaluated %d subspaces, want %v", opt.Evaluated, want)
	}
	if got := p.EstimateMatrix(opt.Matrix); got != opt.Estimated {
		t.Fatalf("returned matrix estimates to %d, reported %d", got, opt.Estimated)
	}
	for _, fam := range []hash.Family{hash.FamilyBitSelect, hash.FamilyPermutation, hash.FamilyGeneralXOR} {
		res, err := search.Construct(context.Background(), p, m, search.Options{Family: fam})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimated < opt.Estimated {
			t.Fatalf("family %v heuristic (%d) beat the exhaustive optimum (%d)?", fam, res.Estimated, opt.Estimated)
		}
	}
}

func TestHillClimbingNearOptimal(t *testing.T) {
	// §3.3 calibration: on simple strided profiles the hill climber
	// should reach the exhaustive optimum exactly.
	var blocks []uint64
	for rep := 0; rep < 20; rep++ {
		for i := uint64(0); i < 16; i++ {
			blocks = append(blocks, i*16)
		}
	}
	p := profile.Build(blocks, 9, 32)
	opt, err := ExhaustiveXOR(context.Background(), p, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Construct(context.Background(), p, 5, search.Options{Family: hash.FamilyGeneralXOR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimated != opt.Estimated {
		t.Fatalf("hill climbing (%d) did not reach the exhaustive optimum (%d) on a pure stride", res.Estimated, opt.Estimated)
	}
}

func TestExhaustiveXORValidation(t *testing.T) {
	p := profile.Build([]uint64{1, 2, 3}, 14, 16)
	if _, err := ExhaustiveXOR(context.Background(), p, 0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := ExhaustiveXOR(context.Background(), p, 5); err == nil {
		t.Error("d=9 design space (~2^40 subspaces) should be refused")
	}
}
