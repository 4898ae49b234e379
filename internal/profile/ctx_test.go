package profile

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// syntheticBlocks builds a deterministic block sequence over 4096
// blocks with a mix of reuse distances.
func syntheticBlocks(n int) []uint64 {
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(i*67+i/3) & 0xfff
	}
	return blocks
}

// waitGoroutines retries until the goroutine count drops back to the
// baseline, failing the test if it does not within the deadline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func wantCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("want cancellation error, got nil")
	}
	if !errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("error %v does not wrap xerr.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestBuildCtxMatchesBuild(t *testing.T) {
	blocks := syntheticBlocks(20000)
	want := Build(blocks, 12, 64)
	got, err := BuildStream(context.Background(), blockTrace(blocks), 1, 12, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatal(d)
	}
}

func TestBuildCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildStream(ctx, blockTrace(syntheticBlocks(100)), 1, 12, 64, Options{})
	wantCanceled(t, err)
}

func TestBuildParallelCtxCanceled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildStream(ctx, blockTrace(syntheticBlocks(20000)), 1, 12, 64, Options{Workers: 2})
	wantCanceled(t, err)
	waitGoroutines(t, baseline)
}

func TestBuildStreamCtxCanceledBeforeRead(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := passFunc(func() ([]trace.Access, error) {
		t.Error("source must not be read under a canceled context")
		return nil, io.EOF
	})
	_, err := BuildStream(ctx, src, 1, 12, 64, Options{Workers: 2})
	wantCanceled(t, err)
	waitGoroutines(t, baseline)
}

// wantExactPrefix asserts a canceled build's result is the longest
// exact prefix: a Degraded profile short of the whole trace and
// bit-identical to Build over the accesses it covers.
func wantExactPrefix(t *testing.T, p *Profile, blocks []uint64, n, cacheBlocks int) {
	t.Helper()
	if p == nil || !p.Degraded {
		t.Fatalf("canceled build returned p=%v, want a Degraded prefix", p)
	}
	if p.Accesses >= uint64(len(blocks)) {
		t.Fatalf("canceled build covers %d of %d accesses, want a strict prefix", p.Accesses, len(blocks))
	}
	if d := diffProfiles(p, Build(blocks[:p.Accesses], n, cacheBlocks)); d != "" {
		t.Fatalf("degraded prefix of %d accesses: %s", p.Accesses, d)
	}
}

// TestBuildParallelCtxCancelDuringExchange cancels from inside the last
// slice's hook while the earlier slices are running: the call must
// surface ErrCanceled alongside the exact prefix the slices reached,
// and leave no goroutine behind.
func TestBuildParallelCtxCancelDuringExchange(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testSliceHook = func(idx int, _ uint64) {
		if idx == 3 {
			cancel()
		}
	}
	defer func() { testSliceHook = nil }()
	blocks := syntheticBlocks(120000)
	p, err := BuildStream(ctx, blockTrace(blocks), 1, 12, 64, Options{Workers: 4})
	wantCanceled(t, err)
	wantExactPrefix(t, p, blocks, 12, 64)
	waitGoroutines(t, baseline)
}

// TestBuildStreamCtxCancelDuringMerge cancels from a late slice's hook
// on a build of many slices: whichever earlier slices finished, the
// join still absorbs them in order up to the first partial one, and
// without a checkpoint returns that exact prefix.
func TestBuildStreamCtxCancelDuringMerge(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testSliceHook = func(idx int, _ uint64) {
		if idx == 5 {
			cancel()
		}
	}
	defer func() { testSliceHook = nil }()
	blocks := syntheticBlocks(100000)
	p, err := BuildStream(ctx, blockTrace(blocks), 1, 12, 64, Options{Workers: 8})
	wantCanceled(t, err)
	wantExactPrefix(t, p, blocks, 12, 64)
	waitGoroutines(t, baseline)
}

func TestBuildStreamCtxCanceledMidStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chunk := blockTrace(syntheticBlocks(1 << 14)).Accesses
	reads := 0
	src := passFunc(func() ([]trace.Access, error) {
		reads++
		if reads == 2 {
			cancel() // the slice must notice before the next read
		}
		return chunk, nil
	})
	_, err := BuildStream(ctx, src, 1, 12, 64, Options{Workers: 2})
	wantCanceled(t, err)
	if reads > 3 {
		t.Errorf("slice kept reading after cancellation: %d reads", reads)
	}
	waitGoroutines(t, baseline)
}
