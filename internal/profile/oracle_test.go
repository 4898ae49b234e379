package profile

// The differential test oracle. oracleBuild re-implements the Fig. 1
// profiling semantics in the most naive way available — for every
// access it rescans the trace backward, with no LRU stack and no
// incremental state — so its correctness is auditable by eye:
//
//	previous access of x at j  →  otherwise compulsory
//	distinct blocks in (j, i)  →  reuse distance
//	distance > cacheBlocks     →  capacity miss, counts nothing
//	else                       →  one count per x⊕y, y in between
//
// It is O(len²) per trace, which is exactly why the real builder uses
// the stack — and exactly why the oracle makes a trustworthy reference:
// the two share no code and no data structure. The tests below assert
// that the sequential Build matches the oracle bit for bit on
// randomized traces, and that BuildStream matches the sequential Build
// bit for bit for every worker count.

import (
	"math/rand"
	"slices"
	"testing"

	"xoridx/internal/gf2"
)

// oracleBuild is the naive reference profiler (see file comment).
func oracleBuild(blocks []uint64, n, cacheBlocks int) *Profile {
	mask := uint64(gf2.Mask(n))
	p := &Profile{N: n, CacheBlocks: cacheBlocks, Table: make([]uint64, 1<<uint(n))}
	for i := range blocks {
		x := blocks[i] & mask
		p.Accesses++
		prev := -1
		for k := i - 1; k >= 0; k-- {
			if blocks[k]&mask == x {
				prev = k
				break
			}
		}
		if prev < 0 {
			p.Compulsory++
			continue
		}
		var between []uint64
		seen := make(map[uint64]bool)
		for k := i - 1; k > prev; k-- {
			y := blocks[k] & mask
			if !seen[y] {
				seen[y] = true
				between = append(between, y)
			}
		}
		if len(between) > cacheBlocks {
			p.Capacity++
			continue
		}
		p.Candidates++
		for _, y := range between {
			p.Table[x^y]++
			p.TotalPairs++
		}
	}
	return p
}

// diffProfiles returns a description of the first field where two
// profiles differ, or "" when they are bit-identical. Both backends are
// compared exactly; mixing a flat and a sparse profile is itself a
// difference (use diffWidened for flat-vs-sparse comparisons).
func diffProfiles(got, want *Profile) string {
	if d := diffCounters(got, want); d != "" {
		return d
	}
	if (got.Table == nil) != (want.Table == nil) {
		return "backend differs"
	}
	if want.Table != nil {
		for v := range want.Table {
			if got.Table[v] != want.Table[v] {
				return "Table differs"
			}
		}
		return ""
	}
	if len(got.Sparse) != len(want.Sparse) {
		return "Sparse support size differs"
	}
	for v, c := range want.Sparse {
		if got.Sparse[v] != c {
			return "Sparse differs"
		}
	}
	return ""
}

// wideN is the narrowest width NewBuilder stores sparse. A flat/sparse
// differential builds its sparse side at wideN over blocks already
// masked to the flat side's n, so both passes see the same accesses
// and the same conflict vectors.
const wideN = MaxFlatBits + 1

// maskBlocks returns a copy of blocks truncated to n bits.
func maskBlocks(blocks []uint64, n int) []uint64 {
	mask := uint64(gf2.Mask(n))
	out := make([]uint64, len(blocks))
	for i, b := range blocks {
		out[i] = b & mask
	}
	return out
}

// diffWidened compares a sparse profile built at wideN with the flat
// profile of the same masked blocks: every counter but N must match,
// and so must the histogram support, entry for entry.
func diffWidened(sparse, flat *Profile) string {
	if sparse.N != wideN || sparse.Sparse == nil || flat.Table == nil {
		return "not a sparse profile at wideN against a flat one"
	}
	if d := diffCounters(withN(sparse, flat.N), flat); d != "" {
		return d
	}
	if !slices.Equal(sparse.Support(), flat.Support()) {
		return "histogram support differs"
	}
	return ""
}

// withN returns a shallow copy of p relabelled to width n, so a sparse
// profile built at wideN compares with an n-bit profile of the same
// masked blocks.
func withN(p *Profile, n int) *Profile {
	q := *p
	q.N = n
	return &q
}

func diffCounters(got, want *Profile) string {
	switch {
	case got.N != want.N:
		return "N differs"
	case got.CacheBlocks != want.CacheBlocks:
		return "CacheBlocks differs"
	case got.Accesses != want.Accesses:
		return "Accesses differs"
	case got.Compulsory != want.Compulsory:
		return "Compulsory differs"
	case got.Capacity != want.Capacity:
		return "Capacity differs"
	case got.Candidates != want.Candidates:
		return "Candidates differs"
	case got.TotalPairs != want.TotalPairs:
		return "TotalPairs differs"
	case got.SampleK != want.SampleK || got.SampleSeed != want.SampleSeed:
		return "sampling differs"
	case got.SampledCandidates != want.SampledCandidates:
		return "SampledCandidates differs"
	}
	return ""
}

// randomOracleTrace draws a trace that mixes locality regimes so all
// three classifications (compulsory, capacity, conflict) occur: tight
// loops, strides, and uniform noise over a space larger than 2^n (to
// exercise the n-bit mask).
func randomOracleTrace(r *rand.Rand) []uint64 {
	length := 50 + r.Intn(350)
	space := uint64(1) << uint(6+r.Intn(6)) // up to 2^11 > 2^n for small n
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		switch r.Intn(4) {
		case 0: // tight loop over a small working set
			set := 2 + r.Intn(6)
			base := r.Uint64() % space
			for rep := 0; rep < 2+r.Intn(8); rep++ {
				for i := 0; i < set; i++ {
					blocks = append(blocks, (base+uint64(i))%space)
				}
			}
		case 1: // stride burst
			stride := uint64(1) << uint(r.Intn(6))
			base := r.Uint64() % space
			for i := uint64(0); i < 12; i++ {
				blocks = append(blocks, (base+i*stride)%space)
			}
		case 2: // revisit an old block after a long gap
			if len(blocks) > 0 {
				blocks = append(blocks, blocks[r.Intn(len(blocks))])
			} else {
				blocks = append(blocks, r.Uint64()%space)
			}
		default: // uniform noise
			for i := 0; i < 6; i++ {
				blocks = append(blocks, r.Uint64()%space)
			}
		}
	}
	return blocks[:length]
}

// TestDifferentialSequentialVsOracle checks Build ≡ oracle exactly on
// over a thousand randomized traces across n and capacity settings.
func TestDifferentialSequentialVsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	trials := 1200
	if testing.Short() {
		trials = 200
	}
	for trial := 0; trial < trials; trial++ {
		blocks := randomOracleTrace(r)
		n := 4 + r.Intn(7)
		cacheBlocks := 1 << uint(r.Intn(6))
		got := Build(blocks, n, cacheBlocks)
		want := oracleBuild(blocks, n, cacheBlocks)
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("trial %d (n=%d cap=%d len=%d): Build vs oracle: %s",
				trial, n, cacheBlocks, len(blocks), d)
		}
	}
}

// TestDifferentialParallelVsSequential checks that BuildStream is
// bit-identical to Build — counters included — for every worker count
// and for slice lengths that force many boundaries, on randomized
// traces.
func TestDifferentialParallelVsSequential(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		blocks := randomOracleTrace(r)
		n := 4 + r.Intn(7)
		cacheBlocks := 1 << uint(r.Intn(6))
		want := Build(blocks, n, cacheBlocks)
		for workers := 1; workers <= 8; workers++ {
			got := mustParallel(t, blocks, n, cacheBlocks, workers)
			if d := diffProfiles(got, want); d != "" {
				t.Fatalf("trial %d (n=%d cap=%d len=%d) workers=%d: %s",
					trial, n, cacheBlocks, len(blocks), workers, d)
			}
		}
		size := 1 + r.Intn(40)
		got := mustParallel(t, blocks, n, cacheBlocks, slicesOf(len(blocks), size))
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("trial %d (n=%d cap=%d len=%d) slice length %d: %s",
				trial, n, cacheBlocks, len(blocks), size, d)
		}
	}
}

// TestDifferentialShardedMatrix is the full cross-implementation race
// for the slice join: on every trial one randomized trace
// (locality-mixed or boundary-adversarial) is profiled by the
// sequential Build, the pre-overhaul sequential reference (refBuild),
// the retained warmup/overlap parallel reference (refBuildParallel),
// BuildStream at a random worker count in {1..16}, and BuildStream
// over slices of a random length in {1..48} — on all three exact
// stores (flat, sparse at wideN over n-bit blocks, wide-n sparse) —
// and every result must be bit-identical, counters and BuildStats
// walk-count probes included. The wideN sparse profile must also match
// the flat profile of the same blocks entry for entry.
func TestDifferentialShardedMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	trials := 520
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		backend := trial % 3 // 0: flat, 1: sparse at wideN, 2: wide-n sparse
		n := 4 + r.Intn(7)
		if backend == 2 {
			n = MaxFlatBits + 4 + r.Intn(8)
		}
		cacheBlocks := 1 << uint(r.Intn(6))
		var blocks []uint64
		if trial%2 == 0 {
			blocks = randomOracleTrace(r)
		} else {
			period := cacheBlocks + r.Intn(2*cacheBlocks+1)
			blocks = boundaryTrace(r, period, 200+r.Intn(600))
		}
		if backend == 2 {
			// Spread the low-entropy generator output across the wide
			// mask so conflict vectors actually exceed MaxFlatBits.
			for i := range blocks {
				blocks[i] |= blocks[i] << 13
			}
		}
		var flat *Profile
		if backend == 1 {
			blocks = maskBlocks(blocks, n)
			flat = Build(blocks, n, cacheBlocks)
			n = wideN
		}

		want := Build(blocks, n, cacheBlocks)
		if flat != nil {
			if d := diffWidened(want, flat); d != "" {
				t.Fatalf("trial %d (cap=%d): sparse at wideN vs flat: %s", trial, cacheBlocks, d)
			}
		}
		if d := diffProfiles(refBuild(blocks, n, cacheBlocks), want); d != "" {
			t.Fatalf("trial %d (n=%d cap=%d): refBuild vs sequential: %s",
				trial, n, cacheBlocks, d)
		}

		workers := 1 + r.Intn(16)
		got := mustParallelOpts(t, blocks, n, cacheBlocks, Options{Workers: workers})
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("trial %d (n=%d cap=%d len=%d) workers=%d: sliced vs sequential: %s",
				trial, n, cacheBlocks, len(blocks), workers, d)
		}
		refPar := refBuildParallel(blocks, n, cacheBlocks, 1+r.Intn(8))
		if d := diffProfiles(got, refPar); d != "" {
			t.Fatalf("trial %d workers=%d: sliced vs retained warmup reference: %s",
				trial, workers, d)
		}

		size := 1 + r.Intn(48)
		gs := mustParallel(t, blocks, n, cacheBlocks, slicesOf(len(blocks), size))
		if d := diffProfiles(gs, want); d != "" {
			t.Fatalf("trial %d (n=%d cap=%d len=%d) slice length %d: many slices vs sequential: %s",
				trial, n, cacheBlocks, len(blocks), size, d)
		}

		if backend == 0 {
			if d := diffProfiles(want, oracleBuild(blocks, n, cacheBlocks)); d != "" {
				t.Fatalf("trial %d (n=%d cap=%d): sequential vs oracle: %s",
					trial, n, cacheBlocks, d)
			}
		}
	}
}
