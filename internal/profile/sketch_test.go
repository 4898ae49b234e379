package profile

// Tests for the sketch histogram backend (sketch.go): the capped map
// against a naive Misra–Gries reference and against the exact sparse
// backend, sharded builds and merge ties, merge backend rules, the
// options and checkpoint refusals, and the Slack accounting.

import (
	"cmp"
	"context"
	"errors"
	"io"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// wideSupportBlocks scatters strided walks across a 24-bit block
// space so the exact histogram's support is far wider than a small
// sketch cap, forcing the pruning the bound has to absorb.
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

// checkSketchBound holds a sketch profile to the Misra–Gries
// guarantees against the exact profile of the same accesses: the
// same counters, at most entryCap entries, every count in [true −
// Slack, true], and Slack·(entryCap+1) <= TotalPairs − Σ counts.
func checkSketchBound(t testing.TB, sk, exact *Profile) {
	t.Helper()
	if d := diffCounters(sk, withN(exact, sk.N)); d != "" {
		t.Fatal(d)
	}
	if sk.Backend() != "sketch" || sk.entryCap <= 0 {
		t.Fatalf("backend %q with cap %d, want a capped sketch", sk.Backend(), sk.entryCap)
	}
	if len(sk.Sparse) > sk.entryCap {
		t.Fatalf("%d entries over the cap %d", len(sk.Sparse), sk.entryCap)
	}
	exact.ForEachNonZero(func(v gf2.Vec, c uint64) {
		if got := sk.At(v); got > c || got+sk.Slack < c {
			t.Fatalf("count of %#x is %d, true %d, slack %d", uint64(v), got, c, sk.Slack)
		}
	})
	var sum uint64
	sk.ForEachNonZero(func(v gf2.Vec, c uint64) {
		if c > exact.At(v) {
			t.Fatalf("sketch counts %#x %d times, true %d", uint64(v), c, exact.At(v))
		}
		sum += c
	})
	if sk.Slack*uint64(sk.entryCap+1) > sk.TotalPairs-sum {
		t.Fatalf("slack %d × %d exceeds the %d pairs pruned", sk.Slack, sk.entryCap+1, sk.TotalPairs-sum)
	}
}

// refCapped is the Misra–Gries summary spelled out on a vector-sorted
// slice: the reference the capped map must match entry for entry.
type refCapped struct {
	cap     int
	entries []VectorCount
	slack   uint64
}

func (r *refCapped) add(v gf2.Vec, c uint64) {
	i, ok := slices.BinarySearchFunc(r.entries, v, func(e VectorCount, v gf2.Vec) int { return cmp.Compare(e.Vec, v) })
	if ok {
		r.entries[i].Count += c
	} else {
		r.entries = slices.Insert(r.entries, i, VectorCount{Vec: v, Count: c})
	}
}

// inc adds one occurrence of v; past the cap every count loses one.
func (r *refCapped) inc(v gf2.Vec) {
	r.add(v, 1)
	if len(r.entries) > r.cap {
		r.subtract(1)
	}
}

// merge adds o and, past the cap, subtracts the (cap+1)-th largest
// count from every entry.
func (r *refCapped) merge(o *refCapped) {
	for _, e := range o.entries {
		r.add(e.Vec, e.Count)
	}
	r.slack += o.slack
	if len(r.entries) > r.cap {
		counts := make([]uint64, len(r.entries))
		for i, e := range r.entries {
			counts[i] = e.Count
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		r.subtract(counts[r.cap])
	}
}

func (r *refCapped) subtract(c uint64) {
	var kept []VectorCount
	for _, e := range r.entries {
		if e.Count > c {
			kept = append(kept, VectorCount{Vec: e.Vec, Count: e.Count - c})
		}
	}
	r.entries = kept
	r.slack += c
}

// sameAsRef reports whether p's capped map and Slack equal r's.
func sameAsRef(p *Profile, r *refCapped) bool {
	return p.Slack == r.slack && slices.Equal(p.Support(), r.entries)
}

// TestSketchDifferentialAgainstSparse: a sketch build whose cap is far
// below the support keeps every Misra–Gries guarantee against the
// exact sparse build, and one whose cap covers the support is the
// exact histogram, with no slack.
func TestSketchDifferentialAgainstSparse(t *testing.T) {
	blocks := wideSupportBlocks(rand.New(rand.NewSource(71)), 40_000)
	sparse := Build(blocks, wideN, 64)
	if len(sparse.Sparse) < 300 {
		t.Fatalf("support %d too small for a meaningful differential", len(sparse.Sparse))
	}
	sk := mustParallelOpts(t, blocks, 24, 64, Options{Workers: 1, Sketch: true, entryCap: 256})
	checkSketchBound(t, sk, sparse)
	if sk.Slack == 0 {
		t.Fatal("a cap of 256 under a wide support never pruned")
	}
	if sk.HistogramBytes() != 256*48 || sk.HistogramBytes() >= sparse.HistogramBytes() {
		t.Fatalf("sketch histogram %d B, sparse %d B", sk.HistogramBytes(), sparse.HistogramBytes())
	}

	whole := mustParallelOpts(t, blocks, 24, 64, Options{Sketch: true, entryCap: len(sparse.Sparse)})
	if whole.Slack != 0 || !slices.Equal(whole.Support(), sparse.Support()) {
		t.Fatalf("a cap covering the support: slack %d, histogram equal %v",
			whole.Slack, slices.Equal(whole.Support(), sparse.Support()))
	}
}

// TestSketchShardedMergeStaysBounded: a multi-worker sketch build is
// not bit-identical to a sequential one (slices prune on their own
// before the join prunes again) but keeps every guarantee at Workers
// 1, 2 and 4. Merging two summaries whose sum ties at the (K+1)-th
// count drops every tied entry and charges the tie to Slack.
func TestSketchShardedMergeStaysBounded(t *testing.T) {
	blocks := wideSupportBlocks(rand.New(rand.NewSource(72)), 20_000)
	sparse := Build(blocks, wideN, 64)
	for _, workers := range []int{1, 2, 4} {
		sk := mustParallelOpts(t, blocks, 24, 64, Options{Workers: workers, Sketch: true, entryCap: 512})
		checkSketchBound(t, sk, sparse)
	}

	a := &Profile{N: 8, Sparse: map[uint64]uint64{1: 6, 3: 4, 5: 2}, Slack: 1, entryCap: 3, TotalPairs: 16}
	b := &Profile{N: 8, Sparse: map[uint64]uint64{2: 5, 4: 2, 6: 1}, Slack: 2, entryCap: 3, TotalPairs: 20}
	ra := &refCapped{cap: 3, entries: a.Support(), slack: a.Slack}
	rb := &refCapped{cap: 3, entries: b.Support(), slack: b.Slack}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	ra.merge(rb)
	// Counts 6, 5, 4, 2, 2, 1: the 4th largest is 2, at which 4 and 5
	// tie; both go, and so does 6, leaving {1:4, 2:3, 3:2}.
	want := []VectorCount{{Vec: 1, Count: 4}, {Vec: 2, Count: 3}, {Vec: 3, Count: 2}}
	if !slices.Equal(a.Support(), want) || a.Slack != 1+2+2 || !sameAsRef(a, ra) {
		t.Fatalf("tied merge: %v slack %d, want %v slack 5 (reference %v slack %d)",
			a.Support(), a.Slack, want, ra.entries, ra.slack)
	}
}

// TestSketchMergeGeometryMismatch: a sketch merges only with a sketch
// of the same cap; a sparse or flat profile is another backend.
func TestSketchMergeGeometryMismatch(t *testing.T) {
	blocks := []uint64{1, 2, 1, 2, 3, 1}
	sk := mustParallelOpts(t, blocks, 8, 4, Options{Sketch: true, entryCap: 8})
	for name, o := range map[string]*Profile{
		"flat":   Build(blocks, 8, 4),
		"sparse": {N: 8, CacheBlocks: 4, Sparse: map[uint64]uint64{3: 2}},
		"cap 9":  mustParallelOpts(t, blocks, 8, 4, Options{Sketch: true, entryCap: 9}),
	} {
		if err := sk.Merge(o); !errors.Is(err, xerr.ErrProfileMismatch) {
			t.Fatalf("merging %s into a sketch: err = %v, want ErrProfileMismatch", name, err)
		}
		if err := o.Merge(sk); !errors.Is(err, xerr.ErrProfileMismatch) {
			t.Fatalf("merging a sketch into %s: err = %v, want ErrProfileMismatch", name, err)
		}
	}
}

// TestSketchOptionsValidate: Sketch selects the default cap unless a
// test shrinks it, the cap means nothing without Sketch, and a sketch
// build can be neither checkpointed through BuildStream nor snapshot
// through its Builder.
func TestSketchOptionsValidate(t *testing.T) {
	if got := (Options{Sketch: true}).withDefaults().entryCap; got != SketchEntries {
		t.Fatalf("default cap %d, want %d", got, SketchEntries)
	}
	if got := (Options{entryCap: 7}).withDefaults().entryCap; got != 0 {
		t.Fatalf("cap %d without Sketch, want 0", got)
	}
	blocks := []uint64{1, 2, 1, 2}
	if p := mustParallelOpts(t, blocks, 8, 4, Options{Sketch: true}); p.Backend() != "sketch" || p.HistogramBytes() != SketchEntries*48 {
		t.Fatalf("Sketch build: backend %q, %d histogram bytes", p.Backend(), p.HistogramBytes())
	}
	if p := mustParallelOpts(t, blocks, 8, 4, Options{entryCap: 7}); p.Backend() != "flat" {
		t.Fatalf("build without Sketch: backend %q, want flat", p.Backend())
	}
	path := filepath.Join(t.TempDir(), "p.ckpt")
	_, err := BuildStream(context.Background(), blockTrace(blocks), 1, 8, 4, Options{Sketch: true, CheckpointPath: path})
	if !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("checkpointed sketch build: err = %v, want ErrInvalidOptions", err)
	}
	if err := newBuilder(8, 4, 16).Checkpoint(io.Discard); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("Checkpoint of a sketch builder: err = %v, want ErrInvalidOptions", err)
	}
}

// TestSketchHeavyHitters: a vector heavier than TotalPairs/(K+1) can
// never be pruned, so the dominant vector survives a stream of
// distinct ones at no less than its true count minus Slack, and
// Support comes back vector-sorted, since the search engine
// binary-partitions support sweeps.
func TestSketchHeavyHitters(t *testing.T) {
	p := &Profile{N: 16, Sparse: map[uint64]uint64{}, entryCap: 8}
	heavy := make([]uint64, 25)
	for i := range heavy {
		heavy[i] = 0xABC
	}
	for v := uint64(1); v <= 100; v++ {
		p.addPairs(0, []uint64{v})
		if v%5 == 0 {
			p.addPairs(0, heavy)
		}
	}
	if got := p.At(0xABC); got > 500 || got+p.Slack < 500 || got == 0 {
		t.Fatalf("dominant vector counts %d with slack %d, true 500", got, p.Slack)
	}
	if len(p.Sparse) > 8 {
		t.Fatalf("tracking %d vectors, cap is 8", len(p.Sparse))
	}
	sup := p.Support()
	if !sort.SliceIsSorted(sup, func(i, j int) bool { return sup[i].Vec < sup[j].Vec }) {
		t.Fatal("Support() not vector-sorted")
	}
}

// TestSketchErrorBoundAccounting pins the Slack arithmetic on a
// stream of distinct vectors: every fifth one overflows a cap of 4
// and empties the map, so 10 increments leave Slack 2 and nothing
// else — Slack·(K+1) = TotalPairs − Σ counts, with equality.
func TestSketchErrorBoundAccounting(t *testing.T) {
	p := &Profile{N: 8, Sparse: map[uint64]uint64{}, entryCap: 4}
	for v := uint64(1); v <= 10; v++ {
		p.addPairs(0, []uint64{v})
	}
	if p.Slack != 2 || len(p.Sparse) != 0 || p.TotalPairs != 10 {
		t.Fatalf("slack %d, %d entries, %d pairs; want 2, 0, 10", p.Slack, len(p.Sparse), p.TotalPairs)
	}
	p.addPairs(0, []uint64{1, 1, 1, 2})
	if want := map[uint64]uint64{1: 3, 2: 1}; !maps.Equal(p.Sparse, want) || p.Slack != 2 {
		t.Fatalf("under the cap: %v slack %d, want %v slack 2", p.Sparse, p.Slack, want)
	}
	if p.HistogramBytes() != 4*48 {
		t.Fatalf("HistogramBytes %d, want %d", p.HistogramBytes(), 4*48)
	}
}

// FuzzSketchBackend drives the capped update and merge with a small
// cap drawn from the seed, so that pruning fires, against the naive
// reference: the map and Slack must be identical. The same stream built
// through BuildStream, at a worker count drawn from the seed, must keep
// every Misra–Gries guarantee against the exact sparse build.
func FuzzSketchBackend(f *testing.F) {
	f.Add(uint64(0), []byte{1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add(uint64(42), []byte{0x40, 0x80, 0x40, 0x80, 0xC0, 0x40})
	f.Add(uint64(7), []byte{})
	f.Add(uint64(5), []byte("conflict vectors overflow a small cap again and again, and the tail is pruned"))
	f.Add(uint64(10), []byte{0x11, 0x21, 0x31, 0x41, 0x11, 0x21, 0x31, 0x41, 0x51, 0x11, 0x61, 0x21, 0x71, 0x31})
	// Two halves of three-block loops whose conflict vectors differ:
	// each half keeps three heavy vectors, so their merge overflows a
	// cap of 5 with distinct 5th and 6th largest counts.
	var loops []byte
	for i := 0; i < 240; i++ {
		loops = append(loops, [2][3]byte{{0x12, 0x34, 0x56}, {0x01, 0x08, 0x80}}[i/120][i%3])
	}
	loops[120], loops[121] = 0x99, 0x99
	f.Add(uint64(20), loops)
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
		entryCap := 1 + int(seed%16)

		// The update and the merge against the reference: each half of
		// the stream adds b against the blocks just before it.
		half := len(blocks) / 2
		var got [2]*Profile
		var want [2]*refCapped
		for h, part := range [][]uint64{blocks[:half], blocks[half:]} {
			got[h] = &Profile{N: 16, Sparse: map[uint64]uint64{}, entryCap: entryCap}
			want[h] = &refCapped{cap: entryCap}
			for i, b := range part {
				var ys []uint64
				for _, y := range part[max(0, i-4):i] {
					if y != b {
						ys = append(ys, y)
					}
				}
				got[h].addPairs(b, ys)
				for _, y := range ys {
					want[h].inc(gf2.Vec(b ^ y))
				}
				if !sameAsRef(got[h], want[h]) {
					t.Fatalf("half %d after access %d: %v slack %d; reference %v slack %d",
						h, i, got[h].Support(), got[h].Slack, want[h].entries, want[h].slack)
				}
			}
		}
		if err := got[0].Merge(got[1]); err != nil {
			t.Fatal(err)
		}
		want[0].merge(want[1])
		if !sameAsRef(got[0], want[0]) {
			t.Fatalf("merged: %v slack %d; reference %v slack %d",
				got[0].Support(), got[0].Slack, want[0].entries, want[0].slack)
		}

		sparse := Build(blocks, wideN, 4)
		sk := mustParallelOpts(t, blocks, 16, 4, Options{Workers: 1 + int(seed/16%4), Sketch: true, entryCap: entryCap})
		checkSketchBound(t, sk, sparse)
	})
}
