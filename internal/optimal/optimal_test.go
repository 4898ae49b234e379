package optimal

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"xoridx/internal/cache"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
)

func TestEnumerateMasks(t *testing.T) {
	masks := enumerateMasks(6, 3)
	if len(masks) != 20 { // C(6,3)
		t.Fatalf("got %d masks, want 20", len(masks))
	}
	seen := map[uint64]bool{}
	for _, m := range masks {
		if bits.OnesCount64(m) != 3 {
			t.Fatalf("mask %b has wrong popcount", m)
		}
		if m >= 1<<6 {
			t.Fatalf("mask %b out of range", m)
		}
		if seen[m] {
			t.Fatalf("duplicate mask %b", m)
		}
		seen[m] = true
	}
}

func TestPext(t *testing.T) {
	cases := []struct{ v, mask, want uint64 }{
		{0b1011, 0b1111, 0b1011},
		{0b1011, 0b1010, 0b11}, // bits 1 and 3 -> 1, 1
		{0b1011, 0b0100, 0},
		{0xFFFF, 0x8001, 0b11},
		{0, 0xFF, 0},
		{0xAB, 0, 0},
	}
	for _, c := range cases {
		if got := pext(c.v, c.mask); got != c.want {
			t.Errorf("pext(%b,%b) = %b, want %b", c.v, c.mask, got, c.want)
		}
	}
}

// bruteBestBitSelect simulates every mask independently via the cache
// simulator, as the reference for ExactBitSelect.
func bruteBestBitSelect(t *testing.T, blocks []uint64, n, m int) (uint64, uint64) {
	t.Helper()
	bestMisses := ^uint64(0)
	bestMask := uint64(0)
	for _, mask := range enumerateMasks(n, m) {
		var positions []int
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				positions = append(positions, i)
			}
		}
		f, err := hash.BitSelecting(n, positions)
		if err != nil {
			t.Fatal(err)
		}
		misses := dmMisses(t, blocks, f)
		if misses < bestMisses {
			bestMisses = misses
			bestMask = mask
		}
	}
	return bestMask, bestMisses
}

func TestExactBitSelectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks := make([]uint64, 2000)
	for i := range blocks {
		// Mix of stride and random accesses in 8-bit block space.
		if i%3 == 0 {
			blocks[i] = uint64(i%16) * 16
		} else {
			blocks[i] = uint64(rng.Intn(256))
		}
	}
	n, m := 8, 4
	res, err := ExactBitSelect(context.Background(), blocks, n, m)
	if err != nil {
		t.Fatal(err)
	}
	_, wantMisses := bruteBestBitSelect(t, blocks, n, m)
	if res.Misses != wantMisses {
		t.Fatalf("exact misses %d, brute force %d", res.Misses, wantMisses)
	}
	// The chosen mask must itself achieve that miss count.
	f, err := hash.BitSelecting(n, res.Positions())
	if err != nil {
		t.Fatal(err)
	}
	if got := dmMisses(t, blocks, f); got != res.Misses {
		t.Fatalf("winning mask resimulates to %d, reported %d", got, res.Misses)
	}
	if res.Evaluated != 70 { // C(8,4)
		t.Fatalf("evaluated %d, want 70", res.Evaluated)
	}
}

func TestExactBitSelectStride(t *testing.T) {
	// Stride 16 over 16 blocks in a 16-set cache: low 4 bits useless,
	// bits 4..7 carry everything. The optimum must include bits 4..7.
	var blocks []uint64
	for r := 0; r < 10; r++ {
		for i := uint64(0); i < 16; i++ {
			blocks = append(blocks, i*16)
		}
	}
	res, err := ExactBitSelect(context.Background(), blocks, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mask != 0xF0 {
		t.Fatalf("mask %b, want 11110000", res.Mask)
	}
	if res.Misses != 16 { // compulsory only
		t.Fatalf("misses %d, want 16", res.Misses)
	}
}

func TestExactBitSelectValidation(t *testing.T) {
	if _, err := ExactBitSelect(context.Background(), nil, 8, 0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := ExactBitSelect(context.Background(), nil, 8, 8); err == nil {
		t.Error("m=n should fail")
	}
	if _, err := ExactBitSelect(context.Background(), []uint64{1 << 10}, 8, 4); err == nil {
		t.Error("oversized block should fail")
	}
	if _, err := ExactBitSelect(context.Background(), nil, 30, 4); err == nil {
		t.Error("oversized n should fail")
	}
}

func TestProfileBestBitSelectMatchesExhaustiveEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blocks := make([]uint64, 3000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1024))
	}
	n, m := 10, 5
	p := profile.Build(blocks, n, 1<<uint(m))
	res, err := ProfileBestBitSelect(context.Background(), p, m)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: score every mask through EstimateSubspace.
	bestEst := ^uint64(0)
	for _, mask := range enumerateMasks(n, m) {
		// Null space of a bit selection = span of unselected unit vectors.
		var vecs []gf2.Vec
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 0 {
				vecs = append(vecs, gf2.Unit(i))
			}
		}
		est := p.EstimateSubspace(gf2.Span(n, vecs...))
		if est < bestEst {
			bestEst = est
		}
	}
	if res.Misses != bestEst {
		t.Fatalf("SOS best %d, exhaustive best %d", res.Misses, bestEst)
	}
	if res.Evaluated != 252 { // C(10,5)
		t.Fatalf("evaluated %d, want 252", res.Evaluated)
	}
}

func TestProfileBestBitSelectValidation(t *testing.T) {
	p := profile.Build([]uint64{1, 2}, 8, 16)
	if _, err := ProfileBestBitSelect(context.Background(), p, 0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := ProfileBestBitSelect(context.Background(), p, 8); err == nil {
		t.Error("m=n should fail")
	}
}

func TestPositionsAndMatrix(t *testing.T) {
	r := BitSelectResult{Mask: 0b1010010}
	pos := r.Positions()
	want := []int{1, 4, 6}
	if len(pos) != len(want) {
		t.Fatalf("positions %v", pos)
	}
	for i := range want {
		if pos[i] != want[i] {
			t.Fatalf("positions %v, want %v", pos, want)
		}
	}
	h := r.Matrix(8)
	if !h.IsBitSelecting() || h.M != 3 {
		t.Fatal("matrix wrong")
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
