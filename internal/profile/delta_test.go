package profile

import (
	"errors"
	"math/rand"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// randomSubspaceDim returns a random subspace of exactly dim d.
func randomSubspaceDim(r *rand.Rand, n, d int) gf2.Subspace {
	for {
		vecs := make([]gf2.Vec, d)
		for i := range vecs {
			vecs[i] = gf2.Vec(r.Uint64()) & gf2.Mask(n)
		}
		sp := gf2.Span(n, vecs...)
		if sp.Dim() == d {
			return sp
		}
	}
}

// TestSparseFlatDifferential builds the same n-bit trace through both
// backends — flat at n, sparse at wideN — and demands identical
// counters, histogram entries and estimates.
func TestSparseFlatDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(7)
		cacheBlocks := 1 << uint(r.Intn(5))
		blocks := make([]uint64, 1500)
		for i := range blocks {
			blocks[i] = uint64(r.Intn(1 << uint(n)))
		}
		flat := Build(blocks, n, cacheBlocks)
		sparse := Build(blocks, wideN, cacheBlocks)
		if flat.Sparse != nil || sparse.Table != nil {
			t.Fatal("backend selection wrong")
		}
		if d := diffWidened(sparse, flat); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		for v := gf2.Vec(0); v < gf2.Vec(1)<<uint(n); v++ {
			if flat.At(v) != sparse.At(v) {
				t.Fatalf("trial %d: At(%v) = %d flat vs %d sparse", trial, v, flat.At(v), sparse.At(v))
			}
		}
		for k := 0; k < 4; k++ {
			sp := randomSubspaceDim(r, n, r.Intn(n+1))
			if flat.EstimateSubspace(sp) != sparse.EstimateSubspace(gf2.Span(wideN, sp.Basis...)) {
				t.Fatalf("trial %d: EstimateSubspace differs on %v", trial, sp.Basis)
			}
		}
		sf := flat.Support()
		ss := sparse.Support()
		if len(sf) != len(ss) {
			t.Fatalf("trial %d: support sizes differ: %d vs %d", trial, len(sf), len(ss))
		}
		for i := range sf {
			if sf[i] != ss[i] {
				t.Fatalf("trial %d: support[%d] differs: %+v vs %+v", trial, i, sf[i], ss[i])
			}
		}
	}
}

// TestSparseWideAddressSmoke exercises the lifted width limit: a 40-bit
// profile must build, estimate (via the support scan — the null space
// has 2^32 members) and merge without materialising 2^40 counters.
func TestSparseWideAddressSmoke(t *testing.T) {
	const n, m = 40, 8
	// Four wide blocks with identical (zero) low bits: they collide in
	// set 0 under modulo indexing but fit a 4-block FA cache, so every
	// re-reference is a conflict candidate.
	ws := []uint64{1 << 30, 1 << 31, 1 << 32, 1<<30 | 1<<31}
	var blocks []uint64
	for rep := 0; rep < 8; rep++ {
		blocks = append(blocks, ws...)
	}
	p := Build(blocks, n, len(ws))
	if p.Table != nil || p.Sparse == nil {
		t.Fatal("n=40 must select the sparse backend")
	}
	conv := p.EstimateConventional(m)
	// Brute-force oracle over the support: v is a conventional conflict
	// iff its low m bits are zero.
	var want uint64
	p.ForEachNonZero(func(v gf2.Vec, c uint64) {
		if v&gf2.Mask(m) == 0 {
			want += c
		}
	})
	if conv == 0 || conv != want {
		t.Fatalf("conventional estimate = %d, support oracle = %d", conv, want)
	}
	o := Build(blocks, n, len(ws))
	if err := p.Merge(o); err != nil {
		t.Fatal(err)
	}
	if got := p.EstimateConventional(m); got != 2*conv {
		t.Fatalf("merged estimate = %d, want %d", got, 2*conv)
	}
	if hot := p.HotVectors(4); len(hot) == 0 {
		t.Fatal("HotVectors empty on a conflicting trace")
	}
}

// TestMergeBackendMismatch pins the flat-vs-sparse merge error. The
// builders never store a sparse map at n <= MaxFlatBits, but Profile's
// fields are exported, so a caller can assemble one.
func TestMergeBackendMismatch(t *testing.T) {
	flat := Build([]uint64{1, 2, 1, 2}, 8, 4)
	sparse := &Profile{N: 8, CacheBlocks: 4, Sparse: map[uint64]uint64{3: 2},
		Accesses: 4, Compulsory: 2, Candidates: 2, TotalPairs: 2}
	if err := flat.Merge(sparse); !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("merging sparse into flat: err = %v, want ErrProfileMismatch", err)
	}
}
