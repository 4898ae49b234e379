package profile

// Tests for sampled profiling (sample.go): classification exactness,
// the error-vs-bound sweep over k required by DESIGN.md §17, stream
// and windowed integration, and the checkpoint restrictions.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"

	"xoridx/internal/xerr"
)

// buildSampled is the sampled reference pass: one Builder with the
// sampling gate armed, fed the whole trace.
func buildSampled(blocks []uint64, n, cacheBlocks int, opt SampleOptions) *Profile {
	bd := NewBuilder(n, cacheBlocks)
	bd.setSampling(opt)
	return bd.finishBlocks(blocks)
}

// sampledSweepK is the sampling-factor sweep exercised throughout.
var sampledSweepK = []uint64{4, 16, 64}

// conflictHeavyBlocks generates a trace dominated by conflict
// candidates: strided walks congruent mod cacheBlocks=64 in a 16-bit
// block space, so most reuses pass the distance gate with nonzero
// conflict vectors.
func conflictHeavyBlocks(rng *rand.Rand, length int) []uint64 {
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		set := 24 + rng.Intn(32) // below cacheBlocks, so reuses are candidates
		base := uint64(rng.Intn(1 << 16))
		for rep := 0; rep < 3 && len(blocks) < length; rep++ {
			for i := 0; i < set && len(blocks) < length; i++ {
				blocks = append(blocks, (base+uint64(i)*64)&(1<<16-1))
			}
		}
	}
	return blocks
}

// TestSampledClassificationMatchesExact pins the core invariant of
// sample.go: sampling only thins the histogram walks — every
// classification counter is bit-identical to the exact pass, and the
// number of walked candidates follows the deterministic phase formula.
func TestSampledClassificationMatchesExact(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(61)), 20_000)
	exact := Build(blocks, 16, 64)
	if exact.Candidates == 0 {
		t.Fatal("generator produced no conflict candidates")
	}
	for _, k := range sampledSweepK {
		const seed = 9
		p := buildSampled(blocks, 16, 64, SampleOptions{K: k, Seed: seed})
		if p.Accesses != exact.Accesses || p.Compulsory != exact.Compulsory ||
			p.Capacity != exact.Capacity || p.Candidates != exact.Candidates {
			t.Fatalf("k=%d: classification differs from exact: %+v vs %+v", k,
				[4]uint64{p.Accesses, p.Compulsory, p.Capacity, p.Candidates},
				[4]uint64{exact.Accesses, exact.Compulsory, exact.Capacity, exact.Candidates})
		}
		if p.SampleK != k || p.SampleSeed != seed {
			t.Fatalf("k=%d: sampling parameters not recorded: K=%d Seed=%d", k, p.SampleK, p.SampleSeed)
		}
		phase := splitmix64(seed)%k + 1
		var want uint64
		if p.Candidates >= phase {
			want = (p.Candidates-phase)/k + 1
		}
		if p.SampledCandidates != want {
			t.Fatalf("k=%d: walked %d candidates, want %d (phase %d of %d)",
				k, p.SampledCandidates, want, phase, p.Candidates)
		}
		if p.TotalPairs > exact.TotalPairs {
			t.Fatalf("k=%d: sampled TotalPairs %d exceeds exact %d", k, p.TotalPairs, exact.TotalPairs)
		}
	}
	// Exact profiles report exact confidence.
	c := exact.ConfidenceFor(exact.EstimateConventional(6))
	if c.K != 1 || c.Margin != 0 || c.Level != 1 || c.Estimate != c.Raw {
		t.Fatalf("exact confidence malformed: %+v", c)
	}
}

// TestSampledErrorWithinBound is the error-vs-bound sweep: for each k
// the scaled Eq. 4 estimate must land within its own reported margin
// of the exact count, across several conventional geometries.
func TestSampledErrorWithinBound(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(62)), 30_000)
	exact := Build(blocks, 16, 64)
	for _, k := range sampledSweepK {
		p := buildSampled(blocks, 16, 64, SampleOptions{K: k, Seed: 7})
		for _, m := range []int{4, 6, 8} {
			want := exact.EstimateConventional(m)
			conf := p.ConfidenceFor(p.EstimateConventional(m))
			if conf.K != k || conf.Level != 0.95 {
				t.Fatalf("k=%d m=%d: confidence metadata %+v", k, m, conf)
			}
			if conf.Estimate != conf.Raw*k {
				t.Fatalf("k=%d m=%d: estimate %d is not raw %d scaled", k, m, conf.Estimate, conf.Raw)
			}
			diff := int64(conf.Estimate) - int64(want)
			if diff < 0 {
				diff = -diff
			}
			if uint64(diff) > conf.Margin {
				t.Errorf("k=%d m=%d: |%d - %d| = %d exceeds margin %d (%s)",
					k, m, conf.Estimate, want, diff, conf.Margin, conf)
			}
		}
	}
}

// TestSampledDeterministic: the same (trace, k, seed) triple always
// produces the same profile, bit for bit.
func TestSampledDeterministic(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(63)), 10_000)
	opt := SampleOptions{K: 16, Seed: 1234}
	a := buildSampled(blocks, 16, 64, opt)
	b := buildSampled(blocks, 16, 64, opt)
	if d := diffProfiles(a, b); d != "" {
		t.Fatal(d)
	}
	// A different seed shifts the phase but not the classification.
	c := buildSampled(blocks, 16, 64, SampleOptions{K: 16, Seed: 99})
	if c.Candidates != a.Candidates || c.Accesses != a.Accesses {
		t.Fatal("seed changed classification counters")
	}
}

// TestBuildStreamSampledMatchesSequential: BuildStream must route
// sampled builds through the sequential engine (cold shards cannot know
// global candidate ordinals), yielding a profile bit-identical to the
// sampled reference pass no matter how many workers were requested.
func TestBuildStreamSampledMatchesSequential(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(64)), 8_000)
	opt := SampleOptions{K: 16, Seed: 5}
	want := buildSampled(blocks, 16, 64, opt)
	pos := 0
	src := func(dst []uint64) (int, error) {
		if pos >= len(blocks) {
			return 0, io.EOF
		}
		k := copy(dst, blocks[pos:])
		pos += k
		return k, nil
	}
	got, err := BuildStream(context.Background(), src, 16, 64, Options{Workers: 4, chunkSize: 999, Sample: opt})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatal(d)
	}
}

// TestSampledBuilderCheckpointRejected: a mid-pass checkpoint cannot
// carry the sampling gate across restarts faithfully, so the builder
// must refuse rather than silently resample a different subset.
func TestSampledBuilderCheckpointRejected(t *testing.T) {
	bd := NewBuilder(16, 64)
	bd.setSampling(SampleOptions{K: 8})
	bd.Add(0x40)
	if err := bd.Checkpoint(io.Discard); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("sampled Checkpoint returned %v, want ErrInvalidOptions", err)
	}
}

// TestSampledWindowedCheckpointRoundTrip: a sampled Windowed profile
// checkpointed mid-stream and restored must continue exactly as the
// uninterrupted one — including the sampling phase, which the restore
// path recomputes from the persisted candidate ordinal.
func TestSampledWindowedCheckpointRoundTrip(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(65)), 12_000)
	opt := SampleOptions{K: 16, Seed: 77}
	mk := func() *Windowed {
		w, err := NewWindowed(16, 64, 0.5, opt)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ref := mk()
	ckpt := mk()
	half := len(blocks) / 2
	for _, b := range blocks[:half] {
		ref.Add(b)
		ckpt.Add(b)
	}
	ref.Rotate()
	ckpt.Rotate()
	var buf bytes.Buffer
	if err := ckpt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreWindowed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Sampling() != opt {
		t.Fatalf("restored sampling %+v, want %+v", restored.Sampling(), opt)
	}
	for _, b := range blocks[half:] {
		ref.Add(b)
		restored.Add(b)
	}
	if d := diffProfiles(restored.Snapshot(), ref.Snapshot()); d != "" {
		t.Fatalf("window after restore: %s", d)
	}
	if d := diffProfiles(restored.Aggregate(), ref.Aggregate()); d != "" {
		t.Fatalf("aggregate after restore: %s", d)
	}
}

// TestSampledMergeCompatibility: merging profiles with different
// sampling scales or seeds must be refused — the combined histogram
// would have no single scale factor.
func TestSampledMergeCompatibility(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(66)), 4_000)
	a := buildSampled(blocks, 16, 64, SampleOptions{K: 16, Seed: 1})
	if err := a.Merge(Build(blocks, 16, 64)); !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("merging exact into sampled returned %v", err)
	}
	if err := a.Merge(buildSampled(blocks, 16, 64, SampleOptions{K: 16, Seed: 2})); !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("merging different seeds returned %v", err)
	}
	if err := a.Merge(buildSampled(blocks, 16, 64, SampleOptions{K: 16, Seed: 1})); err != nil {
		t.Fatalf("merging compatible sampled profiles: %v", err)
	}
}

// TestConfidenceString pins the rendering the CLI and serve status
// pages rely on.
func TestConfidenceString(t *testing.T) {
	exact := Confidence{Estimate: 42, Raw: 42, K: 1, Level: 1}
	if got := exact.String(); got != "42 (exact)" {
		t.Fatalf("exact rendering: %q", got)
	}
	sampled := Confidence{Estimate: 1600, Raw: 100, K: 16, Margin: 314, Level: 0.95}
	if got := sampled.String(); got != "1600 ± 314 (95% CI, k=16)" {
		t.Fatalf("sampled rendering: %q", got)
	}
}
