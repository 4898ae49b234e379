package profile

import (
	"math/rand"
	"testing"

	"xoridx/internal/cache"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
)

func TestBuildValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"n too large":   func() { Build(nil, MaxBits+1, 16) },
		"n zero":        func() { Build(nil, 0, 16) },
		"no cap filter": func() { Build(nil, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBuildCountsThrashPair(t *testing.T) {
	// Alternating 0, 256: every non-compulsory access sees exactly one
	// block above it, always with conflict vector 256.
	var blocks []uint64
	for i := 0; i < 10; i++ {
		blocks = append(blocks, 0, 256)
	}
	p := Build(blocks, 16, 256)
	if p.Compulsory != 2 {
		t.Fatalf("compulsory = %d", p.Compulsory)
	}
	if p.Capacity != 0 {
		t.Fatalf("capacity = %d", p.Capacity)
	}
	if p.Candidates != 18 {
		t.Fatalf("candidates = %d", p.Candidates)
	}
	if p.Table[256] != 18 {
		t.Fatalf("misses(256) = %d, want 18", p.Table[256])
	}
	if p.TotalPairs != 18 {
		t.Fatalf("total pairs = %d", p.TotalPairs)
	}
}

func TestCapacityFilterRollsBack(t *testing.T) {
	// Cyclic sweep over 2*C blocks: every non-compulsory access has
	// reuse distance 2C-1 > C, so all are capacity misses and the
	// histogram must stay empty.
	const C = 16
	var blocks []uint64
	for r := 0; r < 3; r++ {
		for b := uint64(0); b < 2*C; b++ {
			blocks = append(blocks, b)
		}
	}
	p := Build(blocks, 16, C)
	if p.Capacity != uint64(len(blocks))-2*C {
		t.Fatalf("capacity = %d, want %d", p.Capacity, len(blocks)-2*C)
	}
	if p.TotalPairs != 0 {
		t.Fatalf("total pairs = %d, want 0 after rollback", p.TotalPairs)
	}
	for v, c := range p.Table {
		if c != 0 {
			t.Fatalf("Table[%d] = %d after rollback", v, c)
		}
	}
}

func TestEstimateMatchesExactForSimpleThrash(t *testing.T) {
	// For the alternating pair the estimate is exact: misses(H) counts
	// one miss per access whose single intermediate block conflicts.
	var blocks []uint64
	for i := 0; i < 50; i++ {
		blocks = append(blocks, 0, 256)
	}
	p := Build(blocks, 16, 256)

	// Conventional modulo with 8 set bits: 0 and 256 collide.
	conv := hash.Modulo(16, 8)
	est := p.EstimateMatrix(conv.Matrix())
	exact := dmMisses(t, blocks, conv)
	// exact includes 2 compulsory misses the estimator excludes.
	if est != exact-2 {
		t.Fatalf("estimate %d, exact conflicts %d", est, exact-2)
	}

	// A function XORing bit 8 into bit 0 separates them: estimate 0.
	f, err := hash.PermutationBased(16, 8, [][]int{{8}, {}, {}, {}, {}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if est := p.EstimateMatrix(f.Matrix()); est != 0 {
		t.Fatalf("XOR estimate = %d, want 0", est)
	}
	if exact := dmMisses(t, blocks, f); exact != 2 {
		t.Fatalf("XOR exact = %d, want 2 compulsory", exact)
	}
}

func TestEstimateConventionalEqualsIdentityMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	blocks := make([]uint64, 5000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1 << 12))
	}
	p := Build(blocks, 16, 256)
	m := 8
	if p.EstimateConventional(m) != p.EstimateMatrix(gf2.Identity(16, m)) {
		t.Fatal("EstimateConventional must equal estimate of identity matrix")
	}
}

func TestEstimateSubspaceAgreesWithBasisAndBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	blocks := make([]uint64, 3000)
	for i := range blocks {
		// Strided pattern with collisions in a small universe.
		blocks[i] = uint64((i * 17) % 700)
	}
	p := Build(blocks, 12, 64)
	for trial := 0; trial < 20; trial++ {
		// Random full-rank matrix, m=6.
		var h gf2.Matrix
		for {
			h = gf2.NewMatrix(12, 6)
			for c := range h.Cols {
				h.Cols[c] = gf2.Vec(rng.Uint64()) & gf2.Mask(12)
			}
			if h.Rank() == 6 {
				break
			}
		}
		ns := h.NullSpace()
		want := uint64(0)
		for v, c := range p.Table {
			if c != 0 && ns.Contains(gf2.Vec(v)) {
				want += c
			}
		}
		if got := p.EstimateSubspace(ns); got != want {
			t.Fatalf("EstimateSubspace = %d, brute force = %d", got, want)
		}
		if got := p.EstimateBasis(ns.Basis); got != want {
			t.Fatalf("EstimateBasis = %d, brute force = %d", got, want)
		}
		if got := p.EstimateMatrix(h); got != want {
			t.Fatalf("EstimateMatrix = %d, brute force = %d", got, want)
		}
	}
}

func TestEstimateTracksExactRanking(t *testing.T) {
	// The estimator is a heuristic, but on a strided workload it must
	// rank a conflict-free XOR function far below conventional indexing.
	const sets = 64
	var blocks []uint64
	for rep := 0; rep < 20; rep++ {
		for i := uint64(0); i < 16; i++ {
			blocks = append(blocks, i*sets)
		}
	}
	p := Build(blocks, 12, sets)
	conv := hash.Modulo(12, 6)
	extra := make([][]int, 6)
	for c := 0; c < 4; c++ {
		extra[c] = []int{6 + c}
	}
	xor, err := hash.PermutationBased(12, 6, extra)
	if err != nil {
		t.Fatal(err)
	}
	estConv := p.EstimateMatrix(conv.Matrix())
	estXOR := p.EstimateMatrix(xor.Matrix())
	if estXOR >= estConv {
		t.Fatalf("estimator ranking wrong: conv %d, xor %d", estConv, estXOR)
	}
	exactConv := dmMisses(t, blocks, conv)
	exactXOR := dmMisses(t, blocks, xor)
	if exactXOR >= exactConv {
		t.Fatalf("exact ranking wrong: conv %d, xor %d", exactConv, exactXOR)
	}
}

func TestHotVectors(t *testing.T) {
	var blocks []uint64
	for i := 0; i < 5; i++ {
		blocks = append(blocks, 0, 64) // vector 64, 9 pairs
	}
	for i := 0; i < 3; i++ {
		blocks = append(blocks, 1000, 1000^128) // vector 128, 5 pairs
	}
	p := Build(blocks, 16, 1024)
	hot := p.HotVectors(10)
	if len(hot) < 2 {
		t.Fatalf("hot vectors: %v", hot)
	}
	if hot[0].Vec != 64 || hot[1].Vec != 128 {
		t.Fatalf("hot order wrong: %v", hot)
	}
	if hot[0].Count <= hot[1].Count {
		t.Fatal("counts must be descending")
	}
	// k smaller than distinct vectors truncates.
	if got := p.HotVectors(1); len(got) != 1 {
		t.Fatalf("HotVectors(1) returned %d", len(got))
	}
}

func TestTableZeroIsAlwaysZero(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	blocks := make([]uint64, 2000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(256))
	}
	p := Build(blocks, 10, 64)
	if p.Table[0] != 0 {
		t.Fatalf("Table[0] = %d; a block cannot conflict with itself", p.Table[0])
	}
}

func TestEstimatePanicsOnDimensionMismatch(t *testing.T) {
	p := Build([]uint64{1, 2, 3}, 10, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.EstimateSubspace(gf2.SpanUnits(12, 0, 3))
}

func TestAccountingInvariant(t *testing.T) {
	// accesses = compulsory + capacity + candidates, on any trace.
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 10; trial++ {
		blocks := make([]uint64, 1000+rng.Intn(2000))
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(1 << (6 + rng.Intn(6))))
		}
		p := Build(blocks, 14, 1<<uint(3+rng.Intn(5)))
		if p.Accesses != p.Compulsory+p.Capacity+p.Candidates {
			t.Fatalf("accounting broken: %+v", p)
		}
		// Histogram sums to TotalPairs.
		var sum uint64
		for _, c := range p.Table {
			sum += c
		}
		if sum != p.TotalPairs {
			t.Fatalf("table sum %d != TotalPairs %d", sum, p.TotalPairs)
		}
	}
}

func TestBuilderMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	blocks := make([]uint64, 4000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1 << 11))
	}
	want := Build(blocks, 12, 128)
	b := NewBuilder(12, 128)
	for _, blk := range blocks {
		b.Add(blk)
	}
	got := b.Finish()
	if got.Accesses != want.Accesses || got.Compulsory != want.Compulsory ||
		got.Capacity != want.Capacity || got.TotalPairs != want.TotalPairs {
		t.Fatalf("builder bookkeeping differs: %+v vs %+v", got, want)
	}
	for v := range want.Table {
		if got.Table[v] != want.Table[v] {
			t.Fatalf("Table[%d] differs: %d vs %d", v, got.Table[v], want.Table[v])
		}
	}
}

func TestBuilderAddAfterFinishPanics(t *testing.T) {
	b := NewBuilder(10, 16)
	b.Add(1)
	b.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Add(2)
}

func TestMergeAccumulates(t *testing.T) {
	a := Build([]uint64{0, 64, 0, 64}, 10, 16)
	b := Build([]uint64{0, 128, 0, 128}, 10, 16)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Table[64] != 2 || a.Table[128] != 2 {
		t.Fatalf("merged counts: %d/%d", a.Table[64], a.Table[128])
	}
	if a.Accesses != 8 || a.TotalPairs != 4 {
		t.Fatalf("bookkeeping: %+v", a)
	}
	// A null space admitting only vector 64 pays only for trace a.
	if est := a.EstimateSubspace(gf2.Span(10, 64)); est != 2 {
		t.Fatalf("estimate over span(64) = %d", est)
	}
	// One admitting both vectors pays for both applications.
	if est := a.EstimateSubspace(gf2.Span(10, 64, 128)); est != 4 {
		t.Fatalf("estimate over span(64,128) = %d", est)
	}
}

func TestMergeValidation(t *testing.T) {
	a := Build([]uint64{1}, 10, 16)
	if err := a.Merge(Build([]uint64{1}, 12, 16)); err == nil {
		t.Error("n mismatch must fail")
	}
	if err := a.Merge(Build([]uint64{1}, 10, 32)); err == nil {
		t.Error("capacity mismatch must fail")
	}
}

func TestWideAddressSpace(t *testing.T) {
	// n = 20: the flat table is 1 Mi entries; the whole pipeline must
	// still work (larger embedded address spaces).
	var blocks []uint64
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 64; i++ {
			blocks = append(blocks, i<<10) // stride 2^10 blocks
		}
	}
	p := Build(blocks, 20, 1<<10)
	if len(p.Table) != 1<<20 {
		t.Fatalf("table size %d", len(p.Table))
	}
	conv := p.EstimateConventional(10)
	if conv == 0 {
		t.Fatal("stride must conflict under modulo at n=20")
	}
	h := gf2.Identity(20, 10)
	for c := 0; c < 6; c++ {
		h.Cols[c] |= gf2.Unit(10 + c)
	}
	if est := p.EstimateMatrix(h); est != 0 {
		t.Fatalf("n=20 XOR estimate = %d, want 0", est)
	}
}

// dmMisses is the exact reference: the misses of a direct-mapped cache
// of 4-byte lines, one per set of f, reading blocks in order.
func dmMisses(t testing.TB, blocks []uint64, f *hash.XOR) uint64 {
	t.Helper()
	h := f.Matrix()
	c, err := cache.New(cache.Config{SizeBytes: 4 << h.M, BlockBytes: 4, Ways: 1, Index: h})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		c.AccessBlock(b)
	}
	return c.Stats().Misses
}
