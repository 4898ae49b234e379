package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"xoridx/internal/hash"
	"xoridx/internal/trace"
)

// richTrace interleaves two conflicting stride streams so the search
// takes several hill-climbing moves.
func richTrace(reps int) *trace.Trace {
	tr := &trace.Trace{Name: "rich", Ops: uint64(reps * 64)}
	for r := 0; r < reps; r++ {
		for i := 0; i < 48; i++ {
			tr.Append(uint64(i*256), trace.Read)
			if i%3 == 0 {
				tr.Append(uint64(i*768+28), trace.Read)
			}
		}
	}
	return tr
}

func degradedConfig() Config {
	return Config{CacheBytes: 256, BlockBytes: 4, AddrBits: 12, Family: hash.FamilyGeneralXOR}
}

func TestRunProfiledDegradedOnCancel(t *testing.T) {
	tr := richTrace(6)
	cfg := degradedConfig()
	p, err := BuildProfileCtx(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl := Pipeline{Config: cfg, Events: SinkFunc(func(e Event) {
		if e.Kind == SearchProgress {
			cancel() // kill the pipeline after the first move
		}
	})}
	res, err := pl.RunProfiled(ctx, tr, p)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if res == nil || !res.Degraded {
		t.Fatalf("want a Degraded best-so-far result alongside the error, got %+v", res)
	}
	if !res.Search.Degraded {
		t.Error("Search.Degraded not set on the embedded search result")
	}
	if res.Func == nil {
		t.Fatal("degraded result carries no index function")
	}
	if res.Func.Matrix().Rank() != cfg.SetBits() {
		t.Fatalf("degraded function is not a valid index function: rank %d", res.Func.Matrix().Rank())
	}
	if res.Baseline.Misses != 0 || res.Optimized.Misses != 0 {
		t.Error("degraded result must not fake validated simulation stats")
	}
}

func TestValidateDegradedOnCancel(t *testing.T) {
	tr := richTrace(6)
	cfg := degradedConfig()
	pl := Pipeline{Config: cfg}
	p, err := pl.Profile(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := pl.Search(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pl.Validate(ctx, tr, p, sres)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if res == nil || !res.Degraded || res.Func == nil {
		t.Fatalf("interrupted validation must still return the searched function, got %+v", res)
	}
}

func TestProfileDegradedPartialOnCancel(t *testing.T) {
	tr := richTrace(10)
	cfg := degradedConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := Pipeline{Config: cfg}
	p, err := pl.Profile(ctx, tr)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if p == nil || !p.Degraded {
		t.Fatalf("sequential profiling must return the partial profile tagged Degraded, got %+v", p)
	}
}

// TestPipelineCheckpointResume kills the pipeline mid-search, restarts
// it with Resume, and requires the final tuned result to match an
// uninterrupted run exactly.
func TestPipelineCheckpointResume(t *testing.T) {
	tr := richTrace(6)
	cfg := degradedConfig()
	want, err := TuneCtx(context.Background(), tr, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Search.Iterations < 2 {
		t.Fatalf("test needs a multi-move search, got %d moves", want.Search.Iterations)
	}

	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run")
	cfg.Resume = true
	kill := func(after int) (*Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		moves := 0
		pl := Pipeline{Config: cfg, Events: SinkFunc(func(e Event) {
			if e.Kind == SearchProgress {
				if moves++; after > 0 && moves >= after {
					cancel()
				}
			}
		})}
		return pl.Run(ctx, tr)
	}
	res, err := kill(1)
	if err == nil {
		t.Fatal("first run completed before the kill fired")
	}
	if res == nil || !res.Degraded {
		t.Fatalf("killed run returned no degraded result: %+v", res)
	}
	got, err := kill(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("resumed run still tagged Degraded")
	}
	if got.Search.Estimated != want.Search.Estimated ||
		got.Search.Iterations != want.Search.Iterations ||
		got.Search.Evaluated != want.Search.Evaluated {
		t.Fatalf("resumed search diverged: got (%d est, %d moves, %d evals), want (%d, %d, %d)",
			got.Search.Estimated, got.Search.Iterations, got.Search.Evaluated,
			want.Search.Estimated, want.Search.Iterations, want.Search.Evaluated)
	}
	if got.Optimized.Misses != want.Optimized.Misses || got.Baseline.Misses != want.Baseline.Misses {
		t.Fatalf("resumed validation diverged: got %d/%d misses, want %d/%d",
			got.Optimized.Misses, got.Baseline.Misses, want.Optimized.Misses, want.Baseline.Misses)
	}
	if got.Func.Matrix().String() != want.Func.Matrix().String() {
		t.Fatal("resumed run selected a different function")
	}
}

func TestSentinelReexports(t *testing.T) {
	// The robustness sentinels must be matchable through the core
	// surface without importing internal/xerr.
	for _, pair := range []struct {
		name string
		got  error
	}{
		{"ErrIO", ErrIO},
		{"ErrPanic", ErrPanic},
	} {
		if pair.got == nil {
			t.Errorf("%s re-export is nil", pair.name)
		}
	}
}
