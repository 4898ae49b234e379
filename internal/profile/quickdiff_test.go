package profile

// Property-based differential tests: three structured trace generators
// (strided, tiled, random) cross-check the sequential Build, the
// BuildStream over many slices, and the naive oracle on arbitrary
// inputs, including block addresses at and beyond the 2^n mask edge and
// degenerate empty / single-access traces.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// stridedTrace walks arrays with power-of-two strides — the paper's
// canonical conflict generator (FFT/matrix rows hitting one set).
type stridedTrace struct{ Blocks []uint64 }

func (stridedTrace) Generate(r *rand.Rand, size int) reflect.Value {
	blocks := make([]uint64, 0, 400)
	for len(blocks) < 400 {
		stride := uint64(1) << uint(r.Intn(10))
		base := r.Uint64() & 0xFFFF
		count := uint64(4 + r.Intn(28))
		for rep := 0; rep < 1+r.Intn(3); rep++ {
			for i := uint64(0); i < count; i++ {
				blocks = append(blocks, base+i*stride)
			}
		}
	}
	return reflect.ValueOf(stridedTrace{Blocks: blocks[:400]})
}

// tiledTrace models blocked (tiled) loop nests: repeated sweeps over a
// small tile, then a jump to the next tile — a reuse pattern with sharp
// capacity cliffs.
type tiledTrace struct{ Blocks []uint64 }

func (tiledTrace) Generate(r *rand.Rand, size int) reflect.Value {
	blocks := make([]uint64, 0, 400)
	tile := uint64(4 + r.Intn(60))
	for len(blocks) < 400 {
		base := r.Uint64() & 0x3FFFF // beyond 2^16: exercises the mask
		sweeps := 1 + r.Intn(4)
		for s := 0; s < sweeps; s++ {
			for i := uint64(0); i < tile; i++ {
				blocks = append(blocks, base+i)
			}
		}
	}
	return reflect.ValueOf(tiledTrace{Blocks: blocks[:400]})
}

// randomTrace is unstructured noise over a space wider than any n used
// in the checks, so truncation (blocks >= 2^n) is the common case.
type randomTrace struct{ Blocks []uint64 }

func (randomTrace) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(500) // may be zero: the empty trace is a valid input
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = r.Uint64()
	}
	return reflect.ValueOf(randomTrace{Blocks: blocks})
}

var quickDiffCfg = &quick.Config{MaxCount: 40}

// checkAllBuilders asserts every implementation agrees bit for bit on
// one trace, for an n small enough that many blocks exceed 2^n.
func checkAllBuilders(t *testing.T, blocks []uint64) bool {
	t.Helper()
	for _, n := range []int{4, 9} {
		for _, cacheBlocks := range []int{2, 16, 128} {
			want := oracleBuild(blocks, n, cacheBlocks)
			if d := diffProfiles(Build(blocks, n, cacheBlocks), want); d != "" {
				t.Logf("n=%d cap=%d: Build vs oracle: %s", n, cacheBlocks, d)
				return false
			}
			got, err := BuildStream(context.Background(), blockTrace(blocks), 1, n, cacheBlocks,
				Options{Workers: slicesOf(len(blocks), 33)})
			if err != nil {
				t.Logf("n=%d cap=%d: BuildStream: %v", n, cacheBlocks, err)
				return false
			}
			if d := diffProfiles(got, want); d != "" {
				t.Logf("n=%d cap=%d: BuildStream vs oracle: %s", n, cacheBlocks, d)
				return false
			}
		}
	}
	return true
}

func TestQuickDifferentialStrided(t *testing.T) {
	f := func(tr stridedTrace) bool { return checkAllBuilders(t, tr.Blocks) }
	if err := quick.Check(f, quickDiffCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferentialTiled(t *testing.T) {
	f := func(tr tiledTrace) bool { return checkAllBuilders(t, tr.Blocks) }
	if err := quick.Check(f, quickDiffCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferentialRandom(t *testing.T) {
	f := func(tr randomTrace) bool { return checkAllBuilders(t, tr.Blocks) }
	if err := quick.Check(f, quickDiffCfg); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialDegenerateTraces(t *testing.T) {
	cases := [][]uint64{
		nil,
		{0},
		{1 << 40},           // single access far beyond the mask
		{7, 7, 7, 7},        // one block, repeated
		{15, 31, 15, 31},    // masked collision at n=4: 31&0xF == 15
		{0, 16, 32, 48, 64}, // all alias to 0 at n=4
	}
	for _, blocks := range cases {
		if !checkAllBuilders(t, blocks) {
			t.Fatalf("builders disagree on %v", blocks)
		}
	}
}
