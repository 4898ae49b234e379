package profile

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"xoridx/internal/xerr"
)

// mustParallel runs the sharded engine over an in-memory trace split
// into one chunk per worker, for tests where the geometry is known to
// be valid.
func mustParallel(t testing.TB, blocks []uint64, n, cacheBlocks, workers int) *Profile {
	t.Helper()
	return mustParallelOpts(t, blocks, n, cacheBlocks, Options{Workers: workers})
}

// mustParallelOpts is mustParallel with explicit options. A zero
// ChunkSize is replaced by one chunk per worker, so even short test
// traces cross shard boundaries.
func mustParallelOpts(t testing.TB, blocks []uint64, n, cacheBlocks int, opt Options) *Profile {
	t.Helper()
	if opt.ChunkSize == 0 && opt.Workers > 1 {
		opt.ChunkSize = max(1, (len(blocks)+opt.Workers-1)/opt.Workers)
	}
	p, err := BuildStream(context.Background(), Blocks(blocks), n, cacheBlocks, opt)
	if err != nil {
		t.Fatalf("BuildStream(context.Background(), n=%d cap=%d %+v): %v", n, cacheBlocks, opt, err)
	}
	return p
}

func TestBuildParallelEmptyAndTiny(t *testing.T) {
	for _, blocks := range [][]uint64{nil, {}, {5}, {5, 5}, {1, 2}} {
		want := Build(blocks, 8, 4)
		for workers := 1; workers <= 4; workers++ {
			got := mustParallel(t, blocks, 8, 4, workers)
			if d := diffProfiles(got, want); d != "" {
				t.Errorf("blocks=%v workers=%d: %s", blocks, workers, d)
			}
		}
	}
}

func TestBuildParallelMoreWorkersThanAccesses(t *testing.T) {
	blocks := []uint64{1, 2, 1, 3, 2, 1}
	want := Build(blocks, 6, 4)
	got := mustParallel(t, blocks, 6, 4, 64)
	if d := diffProfiles(got, want); d != "" {
		t.Fatal(d)
	}
}

// TestBuildParallelRejectsInvalidGeometry pins the satellite bugfix:
// an out-of-domain geometry is a wrapped xerr.ErrInvalidOptions error,
// not a panic inside a worker goroutine.
func TestBuildParallelRejectsInvalidGeometry(t *testing.T) {
	for _, tc := range []struct{ n, cacheBlocks int }{
		{0, 4}, {-1, 4}, {65, 4}, {8, 0}, {8, -2},
	} {
		for _, workers := range []int{1, 3} {
			_, err := BuildStream(context.Background(), Blocks([]uint64{1, 2, 3}), tc.n, tc.cacheBlocks, Options{Workers: workers})
			if !errors.Is(err, xerr.ErrInvalidOptions) {
				t.Errorf("BuildStream(context.Background(), n=%d cap=%d workers=%d) err = %v, want ErrInvalidOptions",
					tc.n, tc.cacheBlocks, workers, err)
			}
		}
	}
}

// boundaryTrace builds a trace whose reuse intervals straddle shard
// edges: cycles over `period` distinct blocks, so with shard lengths
// near the period nearly every re-reference crosses a boundary and the
// reuse distance hovers right at the capacity filter. An occasional
// noise block perturbs the recency order so boundary stacks are not
// simple rotations.
func boundaryTrace(r *rand.Rand, period, length int) []uint64 {
	blocks := make([]uint64, 0, length)
	for i := 0; len(blocks) < length; i++ {
		blocks = append(blocks, uint64(i%period))
		if r.Intn(7) == 0 {
			blocks = append(blocks, uint64(r.Intn(1<<8)))
		}
	}
	return blocks[:length]
}

// TestBuildParallelBoundaryAdversarial pins the gate-summary exchange
// where it is hardest: reuse intervals that straddle shard boundaries
// with distances right at the capacity filter, across worker counts and
// chunk sizes chosen to put a boundary inside almost every interval.
func TestBuildParallelBoundaryAdversarial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		cacheBlocks := []int{4, 16, 64}[trial%3]
		period := cacheBlocks + r.Intn(2*cacheBlocks)
		blocks := boundaryTrace(r, period, 600+r.Intn(400))
		want := Build(blocks, 8, cacheBlocks)
		for _, workers := range []int{2, 3, 5, 8} {
			got := mustParallel(t, blocks, 8, cacheBlocks, workers)
			if d := diffProfiles(got, want); d != "" {
				t.Fatalf("trial %d cap=%d period=%d workers=%d: %s",
					trial, cacheBlocks, period, workers, d)
			}
		}
		for _, chunk := range []int{period - 1, period, period + 1} {
			got, err := BuildStream(context.Background(), Blocks(blocks), 8, cacheBlocks,
				Options{Workers: 4, ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffProfiles(got, want); d != "" {
				t.Fatalf("trial %d cap=%d period=%d chunk=%d: %s",
					trial, cacheBlocks, period, chunk, d)
			}
		}
	}
}

// TestBuildParallelStatsInvariants pins the merged hot-path probes: the
// sequential invariants hold exactly for the merged counters too — the
// reconciler never writes a histogram entry it has to undo.
func TestBuildParallelStatsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		blocks := randomOracleTrace(r)
		var st BuildStats
		opt := Options{Workers: 1 + r.Intn(8), Stats: &st}
		p := mustParallelOpts(t, blocks, 8, 16, opt)
		if st.CandidateWalks != p.Candidates {
			t.Fatalf("trial %d workers=%d: CandidateWalks %d != Candidates %d",
				trial, opt.Workers, st.CandidateWalks, p.Candidates)
		}
		if st.WalkSteps != p.TotalPairs {
			t.Fatalf("trial %d workers=%d: WalkSteps %d != TotalPairs %d",
				trial, opt.Workers, st.WalkSteps, p.TotalPairs)
		}
		if st.GatedCapacityMisses != p.Capacity {
			t.Fatalf("trial %d workers=%d: GatedCapacityMisses %d != Capacity %d",
				trial, opt.Workers, st.GatedCapacityMisses, p.Capacity)
		}
	}
}

// TestBuildParallelForceSparse checks the forced sparse backend against
// the sequential sparse builder at a width that would default to flat.
func TestBuildParallelForceSparse(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		blocks := randomOracleTrace(r)
		want := newBuilder(8, 8, true).finishBlocks(blocks)
		got := mustParallelOpts(t, blocks, 8, 8,
			Options{Workers: 2 + r.Intn(6), ForceSparse: true})
		if got.Sparse == nil {
			t.Fatal("ForceSparse did not select the sparse backend")
		}
		if d := diffProfilesAny(got, want); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// TestBuildParallelShardPanicNamesShard pins the failure contract: a
// worker panic surfaces as a wrapped xerr.ErrPanic naming the shard —
// never a bare crash, never a masked secondary cancellation.
func TestBuildParallelShardPanicNamesShard(t *testing.T) {
	testShardHook = func(idx int) {
		if idx == 2 {
			panic("injected shard failure")
		}
	}
	defer func() { testShardHook = nil }()
	blocks := make([]uint64, 4096)
	for i := range blocks {
		blocks[i] = uint64(i % 97)
	}
	_, err := BuildStream(context.Background(), Blocks(blocks), 8, 4, Options{Workers: 4, ChunkSize: 1024})
	if !errors.Is(err, xerr.ErrPanic) {
		t.Fatalf("err = %v, want wrapped ErrPanic", err)
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("err = %v, want the shard named", err)
	}
	if errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("err = %v, panic must not be reported as a cancellation", err)
	}
}

// TestBuildStreamShardPanicNotMaskedByCancellation does the same for
// the stream pipeline, where a failed shard internally cancels the
// dispatcher and its sibling shards: the panic stays the reported root
// cause and no goroutine is left behind.
func TestBuildStreamShardPanicNotMaskedByCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	testShardHook = func(idx int) {
		if idx == 3 {
			panic("injected shard failure")
		}
	}
	defer func() { testShardHook = nil }()
	blocks := make([]uint64, 4096)
	for i := range blocks {
		blocks[i] = uint64(i % 131)
	}
	p, err := BuildStream(context.Background(), Blocks(blocks), 8, 4,
		Options{Workers: 4, ChunkSize: 64})
	if p != nil {
		t.Fatal("failed stream build must not return a profile")
	}
	if !errors.Is(err, xerr.ErrPanic) || !strings.Contains(err.Error(), "shard 3") {
		t.Fatalf("err = %v, want wrapped ErrPanic naming shard 3", err)
	}
	if errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("err = %v, internal cancellation must not mask the panic", err)
	}
	waitGoroutines(t, baseline)
}

// TestBuildStreamFillsShortReads pins the chunk-boundary alignment: a
// source that dribbles a few blocks per call still yields shards of
// exactly ChunkSize (the dispatcher tops chunks up), so shard
// boundaries — and the gate summaries exchanged at them — are a
// function of ChunkSize alone, not of the source's read granularity.
func TestBuildStreamFillsShortReads(t *testing.T) {
	var shards atomic.Int32
	testShardHook = func(int) { shards.Add(1) }
	defer func() { testShardHook = nil }()
	blocks := boundaryTrace(rand.New(rand.NewSource(14)), 13, 100)
	pos := 0
	src := func(dst []uint64) (int, error) {
		if pos >= len(blocks) {
			return 0, io.EOF
		}
		limit := len(dst)
		if limit > 3 {
			limit = 3
		}
		k := copy(dst[:limit], blocks[pos:])
		pos += k
		return k, nil
	}
	got, err := BuildStream(context.Background(), src, 8, 4, Options{Workers: 2, ChunkSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, Build(blocks, 8, 4)); d != "" {
		t.Fatal(d)
	}
	if n := shards.Load(); n != 4 {
		t.Fatalf("dispatched %d shards for 100 accesses at ChunkSize 25, want 4", n)
	}
}

func TestBuildStreamPropagatesSourceError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	src := func(dst []uint64) (int, error) {
		calls++
		if calls == 1 {
			dst[0], dst[1] = 1, 2
			return 2, nil
		}
		return 0, boom
	}
	for _, workers := range []int{1, 2} {
		calls = 0
		if _, err := BuildStream(context.Background(), src, 8, 4, Options{Workers: workers, ChunkSize: 2}); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}

func TestBuildStreamRejectsStuckSource(t *testing.T) {
	src := func(dst []uint64) (int, error) { return 0, nil }
	for _, workers := range []int{1, 2} {
		if _, err := BuildStream(context.Background(), src, 8, 4, Options{Workers: workers}); !errors.Is(err, xerr.ErrFormat) {
			t.Fatalf("workers=%d: err = %v, want wrapped ErrFormat for a source that makes no progress", workers, err)
		}
	}
}

func TestBuildStreamFinalChunkWithEOF(t *testing.T) {
	// A source may return (k > 0, io.EOF) on the last chunk.
	blocks := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	pos := 0
	src := func(dst []uint64) (int, error) {
		k := copy(dst, blocks[pos:])
		pos += k
		if pos >= len(blocks) {
			return k, io.EOF
		}
		return k, nil
	}
	for _, workers := range []int{1, 3} {
		pos = 0
		got, err := BuildStream(context.Background(), src, 6, 4, Options{Workers: workers, ChunkSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffProfiles(got, Build(blocks, 6, 4)); d != "" {
			t.Fatalf("workers=%d: %s", workers, d)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers != 0 {
		t.Fatalf("Workers = %d, want the sequential engine's 0", o.Workers)
	}
	if o.ChunkSize != DefaultChunkSize {
		t.Fatalf("ChunkSize = %d", o.ChunkSize)
	}
	if o.CheckpointEvery != DefaultCheckpointEvery {
		t.Fatalf("CheckpointEvery = %d", o.CheckpointEvery)
	}
	if o := (Options{Workers: 8, Sample: SampleOptions{K: 4}}).withDefaults(); o.Workers != 1 {
		t.Fatalf("sampled Workers = %d, want 1", o.Workers)
	}
}
