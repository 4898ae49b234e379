package search

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

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

func ctxTestProfile() *profile.Profile {
	return profile.Build(strideTrace(64, 32, 10), 12, 64)
}

// TestConstructCtxCanceledEachFamily drives every climb variant with a
// pre-canceled context. The matrix-space families poll the context once
// per ctxCheckEvery candidate evaluations, so enough restarts are
// requested that the cumulative evaluation count is guaranteed to cross
// the threshold; the null-space families cross it within their first
// hill-climbing move.
func TestConstructCtxCanceledEachFamily(t *testing.T) {
	p := ctxTestProfile()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		opt  Options
	}{
		{"general", Options{Family: hash.FamilyGeneralXOR}},
		{"general-parallel", Options{Family: hash.FamilyGeneralXOR, Workers: 4}},
		{"general-limited", Options{Family: hash.FamilyGeneralXOR, MaxInputs: 2, Restarts: 100, Seed: 1}},
		{"permutation", Options{Family: hash.FamilyPermutation, MaxInputs: 2, Restarts: 100, Seed: 1}},
		{"bitselect", Options{Family: hash.FamilyBitSelect, Restarts: 100, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ConstructCtx(ctx, p, 6, tc.opt)
			wantCanceled(t, err)
		})
	}
}

// TestConstructCtxCancelMidClimb cancels from inside the progress
// callback — i.e. mid-search, after the first move — and expects the
// climb to stop within one move.
func TestConstructCtxCancelMidClimb(t *testing.T) {
	p := ctxTestProfile()
	for _, workers := range []int{0, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{Family: hash.FamilyGeneralXOR, Workers: workers,
			Progress: func(Progress) { cancel() }}
		_, err := ConstructCtx(ctx, p, 6, opt)
		wantCanceled(t, err)
		cancel()
	}
}

func TestConstructCtxParallelNoGoroutineLeak(t *testing.T) {
	p := ctxTestProfile()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ConstructCtx(ctx, p, 6, Options{Family: hash.FamilyGeneralXOR, Workers: 8})
	wantCanceled(t, err)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAnnealCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnnealCtx(ctx, ctxTestProfile(), 6, AnnealOptions{})
	wantCanceled(t, err)
}

func TestConstructiveCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ConstructiveCtx(ctx, ctxTestProfile(), 6, 2, 64)
	wantCanceled(t, err)
}

// TestRestartTotalsCountedOnce is the regression test for the restart
// bookkeeping: the returned Iterations must equal the sum over climbs
// of each climb's final move count (reported by the last Progress
// snapshot of that restart), with each climb counted exactly once.
func TestRestartTotalsCountedOnce(t *testing.T) {
	p := ctxTestProfile()
	const restarts = 3
	lastIter := map[int]int{}
	lastEval := map[int]int{}
	res, err := ConstructCtx(context.Background(), p, 6, Options{
		Family:   hash.FamilyPermutation,
		Restarts: restarts,
		Seed:     7,
		Progress: func(pr Progress) {
			lastIter[pr.Restart] = pr.Iteration
			lastEval[pr.Restart] = pr.Evaluated
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sumIter, sumEval := 0, 0
	for r := 0; r <= restarts; r++ {
		sumIter += lastIter[r]
		sumEval += lastEval[r]
	}
	if res.Iterations != sumIter {
		t.Errorf("Iterations = %d, want the per-climb sum %d (each climb counted once)", res.Iterations, sumIter)
	}
	// Evaluations keep accruing after the last move of each climb (the
	// final, non-improving neighborhood scan), so the result must be at
	// least the per-climb sum and strictly larger for a converged climb.
	if res.Evaluated < sumEval {
		t.Errorf("Evaluated = %d, below the per-climb sum %d", res.Evaluated, sumEval)
	}
	if res.Baseline != p.EstimateConventional(6) {
		t.Errorf("Baseline = %d, want conventional estimate %d", res.Baseline, p.EstimateConventional(6))
	}
}

// TestProgressSnapshots checks the Progress stream of a single climb:
// restart indices, monotone move counts, and a final snapshot that
// matches the returned result's best estimate.
func TestProgressSnapshots(t *testing.T) {
	p := ctxTestProfile()
	var got []Progress
	res, err := ConstructCtx(context.Background(), p, 6, Options{
		Family:   hash.FamilyGeneralXOR,
		Progress: func(pr Progress) { got = append(got, pr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no progress snapshots for an improving search")
	}
	for i, pr := range got {
		if pr.Restart != 0 {
			t.Fatalf("snapshot %d: restart %d on a restartless search", i, pr.Restart)
		}
		if pr.Iteration != i+1 {
			t.Fatalf("snapshot %d: iteration %d, want %d (one per move)", i, pr.Iteration, i+1)
		}
		if i > 0 && pr.Best > got[i-1].Best {
			t.Fatalf("snapshot %d: best estimate went up: %d -> %d", i, got[i-1].Best, pr.Best)
		}
	}
	final := got[len(got)-1]
	if final.Best != res.Estimated {
		t.Errorf("final snapshot best %d != result estimate %d", final.Best, res.Estimated)
	}
	if final.Iteration != res.Iterations {
		t.Errorf("final snapshot iteration %d != result iterations %d", final.Iteration, res.Iterations)
	}
}

func TestTypedOptionErrors(t *testing.T) {
	p := profile.Build([]uint64{1, 2, 3}, 12, 64)
	if _, err := ConstructCtx(context.Background(), p, 0, Options{}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("m=0 error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := ConstructCtx(context.Background(), p, 6, Options{MaxInputs: -1}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("negative MaxInputs error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := ConstructCtx(context.Background(), p, 6, Options{Family: hash.Family(99)}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("unknown family error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := AnnealCtx(context.Background(), p, 0, AnnealOptions{}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("anneal m=0 error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := ConstructiveCtx(context.Background(), p, 12, 2, 8); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("constructive m=n error %v must wrap ErrInvalidOptions", err)
	}
}
