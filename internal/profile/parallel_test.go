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

	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// blockTrace is an in-memory trace whose access addresses are the given
// block addresses: BuildStream at block size 1 profiles exactly them.
func blockTrace(blocks []uint64) *trace.Trace {
	tr := &trace.Trace{Accesses: make([]trace.Access, len(blocks))}
	for i, b := range blocks {
		tr.Accesses[i].Addr = b
	}
	return tr
}

// passFunc is a trace source of a single pass whose chunks come from a
// test's closure. Its header declares no length, so BuildStream
// profiles it as one slice.
type passFunc func() ([]trace.Access, error)

func (f passFunc) Header() trace.Header                     { return trace.Header{} }
func (f passFunc) Pass(context.Context) (trace.Pass, error) { return f, nil }
func (f passFunc) Chunk() ([]trace.Access, error)           { return f() }
func (f passFunc) Close() error                             { return nil }

// source is a re-readable trace source of n accesses: every pass is a
// fresh passFunc from open, so a build over several slices reads it
// once per slice.
type source struct {
	n    int
	open func() passFunc
}

func (s source) Header() trace.Header                     { return trace.Header{Len: uint64(s.n)} }
func (s source) Pass(context.Context) (trace.Pass, error) { return s.open(), nil }

// chunked hands blocks out as accesses at most size per chunk, then
// io.EOF, on every pass.
func chunked(blocks []uint64, size int) source {
	return source{len(blocks), func() passFunc {
		rest := blockTrace(blocks).Accesses
		return func() ([]trace.Access, error) {
			if len(rest) == 0 {
				return nil, io.EOF
			}
			k := min(size, len(rest))
			chunk := rest[:k]
			rest = rest[k:]
			return chunk, nil
		}
	}}
}

// slicesOf is the worker count that cuts length accesses into slices
// of at most size accesses: the many-boundary setting of the
// differential tests.
func slicesOf(length, size int) int {
	return max(1, (length+size-1)/size)
}

// mustParallel profiles an in-memory trace in workers slices, for tests
// where the geometry is known to be valid.
func mustParallel(t testing.TB, blocks []uint64, n, cacheBlocks, workers int) *Profile {
	t.Helper()
	return mustParallelOpts(t, blocks, n, cacheBlocks, Options{Workers: workers})
}

// mustParallelOpts is mustParallel with explicit options.
func mustParallelOpts(t testing.TB, blocks []uint64, n, cacheBlocks int, opt Options) *Profile {
	t.Helper()
	p, err := BuildStream(context.Background(), blockTrace(blocks), 1, n, cacheBlocks, opt)
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
			_, err := BuildStream(context.Background(), blockTrace([]uint64{1, 2, 3}), 1, tc.n, tc.cacheBlocks, Options{Workers: workers})
			if !errors.Is(err, xerr.ErrInvalidOptions) {
				t.Errorf("BuildStream(context.Background(), n=%d cap=%d workers=%d) err = %v, want ErrInvalidOptions",
					tc.n, tc.cacheBlocks, workers, err)
			}
		}
	}
}

// boundaryTrace builds a trace whose reuse intervals straddle slice
// edges: cycles over `period` distinct blocks, so with slice lengths
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

// TestBuildParallelBoundaryAdversarial pins the join where it is
// hardest: reuse intervals that straddle slice boundaries with
// distances right at the capacity filter, across worker counts and
// slice lengths chosen to put a boundary inside almost every interval.
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
		for _, size := range []int{period - 1, period, period + 1} {
			got := mustParallel(t, blocks, 8, cacheBlocks, slicesOf(len(blocks), size))
			if d := diffProfiles(got, want); d != "" {
				t.Fatalf("trial %d cap=%d period=%d slice length %d: %s",
					trial, cacheBlocks, period, size, d)
			}
		}
	}
}

// TestBuildParallelStatsInvariants pins the merged hot-path probes,
// which are the profile's counters: the join counts every boundary
// walk, pair and capacity miss exactly as the sequential pass does, and
// never writes a histogram entry it has to undo, so the histogram sums
// to TotalPairs.
func TestBuildParallelStatsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		blocks := randomOracleTrace(r)
		want := Build(blocks, 8, 16)
		workers := 1 + r.Intn(8)
		p := mustParallelOpts(t, blocks, 8, 16, Options{Workers: workers})
		if p.Candidates != want.Candidates || p.TotalPairs != want.TotalPairs || p.Capacity != want.Capacity {
			t.Fatalf("trial %d workers=%d: candidates/pairs/capacity %d/%d/%d, sequential %d/%d/%d",
				trial, workers, p.Candidates, p.TotalPairs, p.Capacity, want.Candidates, want.TotalPairs, want.Capacity)
		}
		var sum uint64
		for _, c := range p.Table {
			sum += c
		}
		if sum != p.TotalPairs {
			t.Fatalf("trial %d workers=%d: histogram sums to %d, TotalPairs %d", trial, workers, sum, p.TotalPairs)
		}
	}
}

// TestBuildParallelShardPanicNamesShard pins the failure contract: a
// worker panic surfaces as a wrapped xerr.ErrPanic naming the slice —
// never a bare crash, never a masked secondary cancellation.
func TestBuildParallelShardPanicNamesShard(t *testing.T) {
	testSliceHook = func(idx int, _ uint64) {
		if idx == 2 {
			panic("injected slice failure")
		}
	}
	defer func() { testSliceHook = nil }()
	blocks := make([]uint64, 4096)
	for i := range blocks {
		blocks[i] = uint64(i % 97)
	}
	_, err := BuildStream(context.Background(), blockTrace(blocks), 1, 8, 4, Options{Workers: 4})
	if !errors.Is(err, xerr.ErrPanic) {
		t.Fatalf("err = %v, want wrapped ErrPanic", err)
	}
	if !strings.Contains(err.Error(), "slice 2") {
		t.Fatalf("err = %v, want the slice named", err)
	}
	if errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("err = %v, panic must not be reported as a cancellation", err)
	}
}

// TestBuildStreamShardPanicNotMaskedByCancellation: a failed slice
// cancels its siblings, and the panic stays the reported root cause
// with no goroutine left behind.
func TestBuildStreamShardPanicNotMaskedByCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	testSliceHook = func(idx int, _ uint64) {
		if idx == 3 {
			panic("injected slice failure")
		}
	}
	defer func() { testSliceHook = nil }()
	blocks := make([]uint64, 4096)
	for i := range blocks {
		blocks[i] = uint64(i % 131)
	}
	p, err := BuildStream(context.Background(), blockTrace(blocks), 1, 8, 4,
		Options{Workers: 16})
	if p != nil {
		t.Fatal("failed stream build must not return a profile")
	}
	if !errors.Is(err, xerr.ErrPanic) || !strings.Contains(err.Error(), "slice 3") {
		t.Fatalf("err = %v, want wrapped ErrPanic naming slice 3", err)
	}
	if errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("err = %v, internal cancellation must not mask the panic", err)
	}
	waitGoroutines(t, baseline)
}

// TestBuildStreamFillsShortReads pins the slice layout: slice bounds —
// and the gates joined at them — are a function of the source's
// declared length and the worker count alone, not of the pass's chunk
// sizes, even for a pass that dribbles a few accesses per chunk.
func TestBuildStreamFillsShortReads(t *testing.T) {
	blocks := boundaryTrace(rand.New(rand.NewSource(14)), 13, 100)
	for _, size := range []int{1, 3, 7, 100} {
		starts := make([]atomic.Uint64, 4)
		testSliceHook = func(idx int, from uint64) { starts[idx].Store(from + 1) }
		got, err := BuildStream(context.Background(), chunked(blocks, size), 1, 8, 4, Options{Workers: 4})
		testSliceHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if d := diffProfiles(got, Build(blocks, 8, 4)); d != "" {
			t.Fatalf("chunks of %d: %s", size, d)
		}
		for i := range starts {
			if from := starts[i].Load(); from != uint64(25*i)+1 {
				t.Fatalf("chunks of %d: slice %d started at %d, want %d", size, i, int(from)-1, 25*i)
			}
		}
	}
}

// TestBuildStreamUnknownLengthIsOneSlice: a source whose header
// declares no length profiles as one slice, whatever Workers says, and
// bit-identically to Build.
func TestBuildStreamUnknownLengthIsOneSlice(t *testing.T) {
	blocks := boundaryTrace(rand.New(rand.NewSource(15)), 29, 3000)
	var slices atomic.Int32
	testSliceHook = func(int, uint64) { slices.Add(1) }
	defer func() { testSliceHook = nil }()
	src := chunked(blocks, 100)
	got, err := BuildStream(context.Background(), src.open(), 1, 10, 16, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, Build(blocks, 10, 16)); d != "" {
		t.Fatal(d)
	}
	if n := slices.Load(); n != 1 {
		t.Fatalf("ran %d slices over a source of unknown length, want 1", n)
	}
}

func TestBuildStreamPropagatesSourceError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2} {
		calls := 0
		src := passFunc(func() ([]trace.Access, error) {
			if calls++; calls == 1 {
				return []trace.Access{{Addr: 1}, {Addr: 2}}, nil
			}
			return nil, boom
		})
		if _, err := BuildStream(context.Background(), src, 1, 8, 4, Options{Workers: workers}); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}

// TestBuildStreamFinalChunkWithEOF: a pass whose last chunk is short,
// with slice lengths that divide neither the trace nor the chunks,
// profiles every access once.
func TestBuildStreamFinalChunkWithEOF(t *testing.T) {
	blocks := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	for _, workers := range []int{1, 3} {
		got, err := BuildStream(context.Background(), chunked(blocks, 5), 1, 6, 4, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffProfiles(got, Build(blocks, 6, 4)); d != "" {
			t.Fatalf("workers=%d: %s", workers, d)
		}
	}
}

// TestBuildStreamBlockSize: BuildStream turns addresses into blocks as
// trace.Blocks does, and refuses a block size that is not a positive
// power of two before reading anything.
func TestBuildStreamBlockSize(t *testing.T) {
	tr := &trace.Trace{}
	for _, b := range syntheticBlocks(5000) {
		tr.Append(b*64+b%64, trace.Read)
	}
	for _, workers := range []int{1, 3, 7} {
		got, err := BuildStream(context.Background(), tr, 64, 10, 16, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffProfiles(got, Build(tr.Blocks(64, 10), 10, 16)); d != "" {
			t.Fatalf("workers=%d: %s", workers, d)
		}
	}
	for _, bb := range []int{0, -4, 3, 48} {
		if _, err := BuildStream(context.Background(), tr, bb, 10, 16, Options{}); !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Errorf("block size %d: err = %v, want wrapped ErrInvalidOptions", bb, err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers != 0 {
		t.Fatalf("Workers = %d, want the one-slice 0", o.Workers)
	}
	if o.checkpointEvery != defaultCheckpointEvery {
		t.Fatalf("checkpointEvery = %d", o.checkpointEvery)
	}
	if o := (Options{Workers: 8, Sample: SampleOptions{K: 4}}).withDefaults(); o.Workers != 1 {
		t.Fatalf("sampled Workers = %d, want 1", o.Workers)
	}
}
