package search

import (
	"context"
	"errors"
	"testing"

	"xoridx/internal/gf2"
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
// the threshold; the null-space climb polls before every move.
func TestConstructCtxCanceledEachFamily(t *testing.T) {
	p := ctxTestProfile()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		opt  Options
	}{
		{"general", Options{Family: hash.FamilyGeneralXOR}},
		{"general-limited", Options{Family: hash.FamilyGeneralXOR, MaxInputs: 2, Restarts: 100, Seed: 1}},
		{"permutation", Options{Family: hash.FamilyPermutation, MaxInputs: 2, Restarts: 100, Seed: 1}},
		{"bitselect", Options{Family: hash.FamilyBitSelect, Restarts: 100, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Construct(ctx, p, 6, tc.opt)
			wantCanceled(t, err)
		})
	}
}

// TestConstructCtxCancelMidClimb cancels from inside the progress
// callback — i.e. mid-search, after the first move — and expects the
// climb to stop within one move.
func TestConstructCtxCancelMidClimb(t *testing.T) {
	p := ctxTestProfile()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{Family: hash.FamilyGeneralXOR, Progress: func(Progress) { cancel() }}
	_, err := Construct(ctx, p, 6, opt)
	wantCanceled(t, err)
}

func TestAnnealCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Construct(ctx, ctxTestProfile(), 6, Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal})
	wantCanceled(t, err)
}

func TestConstructiveCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Construct(ctx, ctxTestProfile(), 6, Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: 2})
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
	res, err := Construct(context.Background(), p, 6, Options{
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
	res, err := Construct(context.Background(), p, 6, Options{
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
	if _, err := Construct(context.Background(), p, 0, Options{}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("m=0 error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := Construct(context.Background(), p, 6, Options{MaxInputs: -1}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("negative MaxInputs error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := Construct(context.Background(), p, 6, Options{Restarts: -1}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("negative Restarts error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := Construct(context.Background(), p, 6,
		Options{Family: hash.FamilyGeneralXOR, Restarts: -1, Warm: gf2.Identity(12, 6)}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("warm negative Restarts error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := Construct(context.Background(), p, 6, Options{Family: hash.Family(99)}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("unknown family error %v must wrap ErrInvalidOptions", err)
	}
	if _, err := Construct(context.Background(), p, 0, Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("anneal m=0 error %v must wrap ErrInvalidOptions", err)
	}
	constructive := Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: 2}
	if _, err := Construct(context.Background(), p, 12, constructive); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("constructive m=n error %v must wrap ErrInvalidOptions", err)
	}
	constructive.MaxInputs = -1
	if _, err := Construct(context.Background(), p, 6, constructive); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("constructive negative maxInputs error %v must wrap ErrInvalidOptions", err)
	}
	// Every algorithm is checked against the family it searches.
	for _, opt := range []Options{
		{Family: hash.FamilyPermutation, Algorithm: Anneal},
		{Family: hash.FamilyGeneralXOR, Algorithm: Anneal, MaxInputs: 2},
		{Family: hash.FamilyGeneralXOR, Algorithm: Constructive},
		{Family: hash.FamilyBitSelect, Algorithm: Constructive},
		{Family: hash.FamilyGeneralXOR, Algorithm: Algorithm(99)},
	} {
		if err := opt.CheckAlgorithm(); !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Errorf("%v on %v: CheckAlgorithm error %v must wrap ErrInvalidOptions", opt.Algorithm, opt.Family, err)
		}
		if _, err := Construct(context.Background(), p, 6, opt); !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Errorf("%v on %v: error %v must wrap ErrInvalidOptions", opt.Algorithm, opt.Family, err)
		}
	}
}

// conflictProfile builds a profile with enough structure that the
// general-XOR climb takes several moves (strides at two granularities
// plus an interleaved offset stream).
func conflictProfile(n, m int) *profile.Profile {
	mask := uint64(1)<<uint(n) - 1
	var blocks []uint64
	for r := 0; r < 6; r++ {
		for i := 0; i < 48; i++ {
			blocks = append(blocks, uint64(i*64)&mask)
			if i%3 == 0 {
				blocks = append(blocks, uint64(i*192+7)&mask)
			}
		}
	}
	return profile.Build(blocks, n, 1<<m)
}

func TestDegradedResultIsValidFunction(t *testing.T) {
	p := conflictProfile(12, 6)
	// The matrix families poll the context once per ctxCheckEvery
	// evaluations, so they get enough restarts that the cumulative
	// evaluation count is guaranteed to cross the threshold.
	for _, opt := range []Options{
		{Family: hash.FamilyGeneralXOR},
		{Family: hash.FamilyPermutation, MaxInputs: 4, Restarts: 100, Seed: 1},
		{Family: hash.FamilyBitSelect, Restarts: 100, Seed: 1},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Construct(ctx, p, 6, opt)
		if !errors.Is(err, xerr.ErrCanceled) {
			t.Fatalf("%v: err = %v, want wrapped ErrCanceled", opt.Family, err)
		}
		if !res.Degraded {
			t.Fatalf("%v: canceled search result not tagged Degraded", opt.Family)
		}
		if res.Matrix.Cols == nil || res.Matrix.Rank() != 6 {
			t.Fatalf("%v: degraded result is not a valid index function: %+v", opt.Family, res.Matrix)
		}
	}
}

func TestAnnealAndConstructiveDegrade(t *testing.T) {
	p := conflictProfile(12, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Construct(ctx, p, 6, Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal})
	if !errors.Is(err, xerr.ErrCanceled) || !res.Degraded || res.Matrix.Cols == nil {
		t.Fatalf("Anneal: res=%+v err=%v, want degraded best-so-far + ErrCanceled", res, err)
	}
	res, err = Construct(ctx, p, 6, Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: 4})
	if !errors.Is(err, xerr.ErrCanceled) || !res.Degraded || res.Matrix.Cols == nil {
		t.Fatalf("Constructive: res=%+v err=%v, want degraded best-so-far + ErrCanceled", res, err)
	}
}
