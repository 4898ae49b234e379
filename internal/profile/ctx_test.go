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

// syntheticBlocks builds a block sequence long enough that every shard
// of a parallel build crosses the amortised cancellation check at least
// once (ctxCheckEvery accesses).
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
	// 2 workers x 10000 accesses: each shard crosses the periodic check.
	_, err := BuildStream(ctx, blockTrace(syntheticBlocks(20000)), 1, 12, 64, Options{Workers: 2, chunkSize: 10000})
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

// TestBuildParallelCtxCancelDuringExchange cancels from inside the last
// shard's hook while the earlier shards are finishing: cancellation
// lands in the window where completed shards are handing their gate
// summaries to the reconciler. The call must surface ErrCanceled,
// return no profile, and leave no goroutine behind.
func TestBuildParallelCtxCancelDuringExchange(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testShardHook = func(idx int) {
		if idx == 3 {
			cancel()
		}
	}
	defer func() { testShardHook = nil }()
	// 4 shards x 30000 accesses: every shard crosses the periodic check.
	p, err := BuildStream(ctx, blockTrace(syntheticBlocks(120000)), 1, 12, 64, Options{Workers: 4, chunkSize: 30000})
	wantCanceled(t, err)
	if p != nil {
		t.Fatal("canceled parallel build must not return a profile")
	}
	waitGoroutines(t, baseline)
}

// TestBuildStreamCtxCancelDuringMerge cancels from a late chunk's hook,
// after earlier chunks have already been absorbed by the collector —
// cancellation mid-reconciliation, not mid-read. Without a checkpoint
// the stream build must drop the partial state entirely.
func TestBuildStreamCtxCancelDuringMerge(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testShardHook = func(idx int) {
		if idx == 5 {
			cancel()
		}
	}
	defer func() { testShardHook = nil }()
	p, err := BuildStream(ctx, blockTrace(syntheticBlocks(100000)), 1, 12, 64,
		Options{Workers: 3, chunkSize: 8192})
	wantCanceled(t, err)
	if p != nil {
		t.Fatal("canceled stream build without a checkpoint must not return a profile")
	}
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
			cancel() // the dispatcher must notice before the next read
		}
		return chunk, nil
	})
	_, err := BuildStream(ctx, src, 1, 12, 64, Options{Workers: 2, chunkSize: len(chunk)})
	wantCanceled(t, err)
	if reads > 3 {
		t.Errorf("dispatcher kept reading after cancellation: %d reads", reads)
	}
	waitGoroutines(t, baseline)
}
