package profile

// Tests for the count-min histogram backend (sketch.go): the
// randomized differential against the exact sparse backend, merge
// geometry rules, heavy-hitter tracking, and the (ε, δ) accounting.

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// wideSupportBlocks scatters strided walks across a 24-bit block
// space so the exact histogram's support is far wider than a sketch
// row, forcing collisions the bound has to absorb.
func wideSupportBlocks(rng *rand.Rand, length int) []uint64 {
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		set := 16 + rng.Intn(40)
		base := uint64(rng.Intn(1 << 24))
		for rep := 0; rep < 2 && len(blocks) < length; rep++ {
			for i := 0; i < set && len(blocks) < length; i++ {
				blocks = append(blocks, (base+uint64(i)*64)&(1<<24-1))
			}
		}
	}
	return blocks
}

// TestSketchDifferentialAgainstSparse is the randomized differential:
// identical classification counters, and every point query bounded by
// [true, true + Slack] with at most a δ fraction of violations of the
// tighter half.
func TestSketchDifferentialAgainstSparse(t *testing.T) {
	blocks := wideSupportBlocks(rand.New(rand.NewSource(71)), 40_000)
	sparse := Build(blocks, wideN, 64)
	sk := mustParallelOpts(t, blocks, 24, 64, Options{
		Workers: 1, Sketch: &SketchOptions{Width: 1 << 8, TopK: 64},
	})
	if d := diffCounters(sk, withN(sparse, 24)); d != "" {
		t.Fatal(d)
	}
	if sk.Sketch == nil || sk.Backend() != "sketch" {
		t.Fatalf("backend is %q, want sketch", sk.Backend())
	}
	if sk.Sketch.Total != sparse.TotalPairs {
		t.Fatalf("sketch absorbed %d increments, sparse counted %d", sk.Sketch.Total, sparse.TotalPairs)
	}
	slack := sk.Sketch.Slack()
	_, delta := sk.Sketch.ErrorBound()
	support, violations := 0, 0
	sparse.ForEachNonZero(func(v gf2.Vec, c uint64) {
		support++
		got := sk.At(v)
		if got < c {
			t.Fatalf("sketch underestimates %#x: %d < %d", uint64(v), got, c)
		}
		if got > c+slack {
			violations++
		}
	})
	if support < 300 {
		t.Fatalf("support %d too small for a meaningful differential", support)
	}
	if float64(violations) > delta*float64(support) {
		t.Fatalf("%d of %d point queries exceed the slack %d (δ allows %.0f)",
			violations, support, slack, delta*float64(support))
	}
	if sk.HistogramBytes() >= sparse.HistogramBytes() {
		t.Fatalf("sketch histogram (%d B) not smaller than sparse (%d B)",
			sk.HistogramBytes(), sparse.HistogramBytes())
	}
}

// TestSketchShardedMergeStaysBounded: a multi-worker sketch build is
// not bit-identical to a sequential one (conservative update is order
// dependent) but every merged counter must remain an upper bound.
func TestSketchShardedMergeStaysBounded(t *testing.T) {
	blocks := wideSupportBlocks(rand.New(rand.NewSource(72)), 20_000)
	sparse := Build(blocks, wideN, 64)
	sk := mustParallelOpts(t, blocks, 24, 64, Options{
		Workers: 4, Sketch: &SketchOptions{Width: 1 << 10},
	})
	if d := diffCounters(sk, withN(sparse, 24)); d != "" {
		t.Fatal(d)
	}
	sparse.ForEachNonZero(func(v gf2.Vec, c uint64) {
		if got := sk.At(v); got < c {
			t.Fatalf("merged sketch underestimates %#x: %d < %d", uint64(v), got, c)
		}
	})
}

func TestSketchMergeGeometryMismatch(t *testing.T) {
	a := NewSketch(SketchOptions{Width: 1 << 8, Depth: 4})
	for _, o := range []SketchOptions{
		{Width: 1 << 9, Depth: 4},
		{Width: 1 << 8, Depth: 3},
		{Width: 1 << 8, Depth: 4, Seed: 1},
	} {
		if err := a.Merge(NewSketch(o)); !errors.Is(err, xerr.ErrProfileMismatch) {
			t.Fatalf("merge with %+v returned %v, want ErrProfileMismatch", o, err)
		}
	}
}

func TestSketchOptionsValidate(t *testing.T) {
	for _, bad := range []SketchOptions{
		{Width: 3},
		{Width: 1},
		{Width: -4},
		{Depth: 17},
		{Depth: -1},
		{TopK: -1},
	} {
		if err := bad.Validate(); !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrInvalidOptions", bad, err)
		}
	}
	if err := (SketchOptions{}).Validate(); err != nil {
		t.Fatalf("zero options (defaults) rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSketch accepted invalid options")
		}
	}()
	NewSketch(SketchOptions{Width: 5})
}

// TestSketchHeavyHitters: the CM-heap must retain the truly heavy
// vectors (at estimates at least their true counts) and support() must
// come back vector-sorted, since the search engine binary-partitions
// support sweeps.
func TestSketchHeavyHitters(t *testing.T) {
	s := NewSketch(SketchOptions{Width: 1 << 10, Depth: 4, TopK: 8})
	for v := uint64(1); v <= 100; v++ {
		s.Inc(v)
	}
	for i := 0; i < 500; i++ {
		s.Inc(0xABC)
	}
	var found bool
	for _, vc := range s.HeavyHitters() {
		if uint64(vc.Vec) == 0xABC {
			found = true
			if vc.Count < 500 {
				t.Fatalf("heavy hitter estimate %d below true count 500", vc.Count)
			}
		}
	}
	if !found {
		t.Fatal("dominant vector evicted from the heavy-hitter set")
	}
	if len(s.HeavyHitters()) > 8 {
		t.Fatalf("tracking %d vectors, TopK is 8", len(s.HeavyHitters()))
	}
	sup := s.support()
	if !sort.SliceIsSorted(sup, func(i, j int) bool { return sup[i].Vec < sup[j].Vec }) {
		t.Fatal("support() not vector-sorted")
	}
}

func TestSketchErrorBoundAccounting(t *testing.T) {
	s := NewSketch(SketchOptions{Width: 1 << 8, Depth: 3, TopK: 4})
	eps, delta := s.ErrorBound()
	if want := math.E / 256; math.Abs(eps-want) > 1e-15 {
		t.Fatalf("ε = %g, want %g", eps, want)
	}
	if want := math.Exp(-3); math.Abs(delta-want) > 1e-15 {
		t.Fatalf("δ = %g, want %g", delta, want)
	}
	for i := 0; i < 1000; i++ {
		s.Inc(uint64(i))
	}
	if want := uint64(math.Ceil(eps * 1000)); s.Slack() != want {
		t.Fatalf("Slack() = %d, want %d", s.Slack(), want)
	}
	if want := 3*256*8 + len(s.HeavyHitters())*48; s.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", s.Bytes(), want)
	}
}

// FuzzSketchBackend feeds arbitrary block streams through both the
// sparse and sketch backends and checks the structural invariants that
// hold unconditionally: identical classification, no underestimates,
// and the total increment count.
func FuzzSketchBackend(f *testing.F) {
	f.Add(uint64(0), []byte{1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add(uint64(42), []byte{0x40, 0x80, 0x40, 0x80, 0xC0, 0x40})
	f.Add(uint64(7), []byte{})
	f.Add(uint64(5), []byte("conflict vectors collide in every row of a narrow sketch, again and again"))
	f.Add(uint64(10), []byte{0x11, 0x21, 0x31, 0x41, 0x11, 0x21, 0x31, 0x41, 0x51, 0x11, 0x61, 0x21, 0x71, 0x31})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		blocks := make([]uint64, len(data))
		for i, b := range data {
			// Spread bytes across a 16-bit space while keeping heavy
			// low-bit aliasing, so conflicts actually occur.
			blocks[i] = uint64(b) | uint64(b&0xF0)<<8
		}
		sparse := Build(blocks, wideN, 4)
		sk := mustParallelOpts(t, blocks, 16, 4, Options{
			Workers: 1, Sketch: &SketchOptions{Width: 1 << (4 + seed%4), Depth: int(seed%3) + 1},
		})
		if d := diffCounters(sk, withN(sparse, 16)); d != "" {
			t.Fatal(d)
		}
		if sk.Sketch.Total != sparse.TotalPairs {
			t.Fatalf("sketch Total %d, sparse TotalPairs %d", sk.Sketch.Total, sparse.TotalPairs)
		}
		sparse.ForEachNonZero(func(v gf2.Vec, c uint64) {
			if got := sk.At(v); got < c {
				t.Fatalf("underestimate at %#x: %d < %d", uint64(v), got, c)
			}
		})

		// Inc against its two-pass reference, with a TopK small enough
		// to evict heavy hitters.
		opt := SketchOptions{Width: 1 << (4 + seed%4), Depth: int(seed%3) + 1, TopK: 8, Seed: seed}
		got, want := NewSketch(opt), NewSketch(opt)
		for i, b := range blocks {
			v := b ^ blocks[i/2]
			got.Inc(v)
			refSketchInc(want, v)
		}
		for d := range want.Rows {
			if !slices.Equal(got.Rows[d], want.Rows[d]) {
				t.Fatalf("row %d differs from the reference Inc", d)
			}
		}
		if got.Total != want.Total || !slices.Equal(got.HeavyHitters(), want.HeavyHitters()) {
			t.Fatalf("Total %d, heavy hitters %v; reference Inc %d, %v",
				got.Total, got.HeavyHitters(), want.Total, want.HeavyHitters())
		}
	})
}

// refSketchInc is the two-pass Inc: it hashes every row once for the
// minimum and again for the conservative update.
func refSketchInc(s *Sketch, v uint64) {
	min := ^uint64(0)
	for d := range s.Rows {
		if c := s.Rows[d][s.rowHash(v, d)]; c < min {
			min = c
		}
	}
	est := min + 1
	for d := range s.Rows {
		if h := s.rowHash(v, d); s.Rows[d][h] < est {
			s.Rows[d][h] = est
		}
	}
	s.Total++
	s.offer(v, est)
}
