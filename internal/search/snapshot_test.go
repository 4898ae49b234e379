package search

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

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

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		N: 12, M: 6, Family: hash.FamilyGeneralXOR, MaxInputs: 0, Seed: 42,
		Restart:    1,
		HaveBest:   true,
		Best:       gf2.Identity(12, 6),
		BestEst:    777,
		Iterations: 9, Evaluated: 1234, Lookups: 5678, MemoHits: 91,
		HaveClimb:       true,
		Basis:           gf2.SpanUnits(12, 6, 12).Basis,
		CurEst:          555,
		ClimbIterations: 3, ClimbEvaluated: 200,
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, sn := range []*Snapshot{
		sampleSnapshot(),
		{N: 10, M: 4, Family: hash.FamilyPermutation, MaxInputs: 2, Seed: -3, Restart: 2},
	} {
		var buf bytes.Buffer
		if err := sn.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.N != sn.N || got.M != sn.M || got.Family != sn.Family ||
			got.MaxInputs != sn.MaxInputs || got.Seed != sn.Seed || got.Restart != sn.Restart ||
			got.HaveBest != sn.HaveBest || got.BestEst != sn.BestEst ||
			got.Iterations != sn.Iterations || got.Evaluated != sn.Evaluated ||
			got.Lookups != sn.Lookups || got.MemoHits != sn.MemoHits ||
			got.HaveClimb != sn.HaveClimb || got.CurEst != sn.CurEst ||
			got.ClimbIterations != sn.ClimbIterations || got.ClimbEvaluated != sn.ClimbEvaluated {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, sn)
		}
		for i := range sn.Basis {
			if got.Basis[i] != sn.Basis[i] {
				t.Fatalf("basis[%d] = %#x, want %#x", i, got.Basis[i], sn.Basis[i])
			}
		}
		if sn.HaveBest {
			for i := range sn.Best.Cols {
				if got.Best.Cols[i] != sn.Best.Cols[i] {
					t.Fatalf("best col %d differs", i)
				}
			}
		}
	}
}

func TestSnapshotRejectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSnapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << uint(bit)
			if _, err := DecodeSnapshot(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flip byte %d bit %d: corrupted snapshot decoded", i, bit)
			} else if !errors.Is(err, xerr.ErrFormat) {
				t.Fatalf("flip byte %d bit %d: error %v does not wrap xerr.ErrFormat", i, bit, err)
			}
		}
	}
}

func TestSnapshotRejectsStructuralLies(t *testing.T) {
	encode := func(mutate func(*Snapshot)) []byte {
		sn := sampleSnapshot()
		mutate(sn)
		var buf bytes.Buffer
		if err := sn.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"m >= n", func(sn *Snapshot) { sn.M = sn.N }},
		{"unknown family", func(sn *Snapshot) { sn.Family = hash.Family(9) }},
		{"dependent basis", func(sn *Snapshot) { sn.Basis = make([]gf2.Vec, len(sn.Basis)) }},
		{"wrong basis dimension", func(sn *Snapshot) { sn.Basis = sn.Basis[:2] }},
		{"rank-deficient best", func(sn *Snapshot) { sn.Best.Cols = make([]gf2.Vec, len(sn.Best.Cols)) }},
	}
	for _, tc := range cases {
		if _, err := DecodeSnapshot(bytes.NewReader(encode(tc.mutate))); !errors.Is(err, xerr.ErrFormat) {
			t.Errorf("%s: err = %v, want wrapped ErrFormat", tc.name, err)
		}
	}
}

// runResumable runs a checkpointed search that cancels itself after
// killAfter hill-climbing moves (0 = run to completion).
func runResumable(t *testing.T, p *profile.Profile, m int, base Options, path string, killAfter int) (Result, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := base
	opt.CheckpointPath = path
	opt.Resume = true
	moves := 0
	opt.Progress = func(pr Progress) {
		if moves++; killAfter > 0 && moves >= killAfter {
			cancel()
		}
	}
	return Construct(ctx, p, m, opt)
}

// resumeMatches kills a search at each point in kills, resuming from
// the snapshot file every time, and requires the converged result to
// be identical to the uninterrupted one in matrix, estimate and work
// counters (Lookups/MemoHits are excluded: a snapshot does not carry
// the in-progress climb's lookup count, so that bookkeeping
// legitimately differs).
func resumeMatches(t *testing.T, p *profile.Profile, m int, base Options, kills []int) {
	t.Helper()
	want, err := Construct(context.Background(), p, m, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iterations < 2 {
		t.Fatalf("test needs a multi-move search, got %d iterations", want.Iterations)
	}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	var got Result
	finished := false
	for i, kill := range kills {
		res, err := runResumable(t, p, m, base, path, kill)
		if err == nil {
			// The climb converged before the cancellation was observed
			// (the matrix families poll only every ctxCheckEvery
			// evaluations). The very first kill must land, though, or the
			// test exercises nothing.
			if i == 0 {
				t.Fatal("first kill: search completed before the kill fired")
			}
			got, finished = res, true
			break
		}
		if !errors.Is(err, xerr.ErrCanceled) {
			t.Fatalf("kill %d: %v", i, err)
		}
		if !res.Degraded || res.Matrix.Cols == nil {
			t.Fatalf("kill %d: no degraded best-so-far result (res=%+v)", i, res)
		}
	}
	if !finished {
		var err error
		got, err = runResumable(t, p, m, base, path, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got.Degraded {
		t.Fatal("converged result still tagged Degraded")
	}
	if got.Estimated != want.Estimated || got.Baseline != want.Baseline {
		t.Fatalf("estimates differ: resumed (%d, base %d), uninterrupted (%d, base %d)",
			got.Estimated, got.Baseline, want.Estimated, want.Baseline)
	}
	if len(got.Matrix.Cols) != len(want.Matrix.Cols) {
		t.Fatal("matrix shapes differ")
	}
	for i := range want.Matrix.Cols {
		if got.Matrix.Cols[i] != want.Matrix.Cols[i] {
			t.Fatalf("matrix col %d: %#x, want %#x", i, got.Matrix.Cols[i], want.Matrix.Cols[i])
		}
	}
	if got.Iterations != want.Iterations || got.Evaluated != want.Evaluated {
		t.Fatalf("work counters differ: resumed (%d moves, %d evals), uninterrupted (%d, %d)",
			got.Iterations, got.Evaluated, want.Iterations, want.Evaluated)
	}
}

func TestKillResumeGeneralXOR(t *testing.T) {
	p := conflictProfile(12, 6)
	resumeMatches(t, p, 6, Options{Family: hash.FamilyGeneralXOR}, []int{1, 2})
}

func TestKillResumeGeneralXORWithRestarts(t *testing.T) {
	p := conflictProfile(12, 6)
	resumeMatches(t, p, 6, Options{Family: hash.FamilyGeneralXOR, Restarts: 2, Seed: 7}, []int{2, 5})
}

func TestKillResumePermutationRestartBoundaries(t *testing.T) {
	// Matrix families checkpoint at restart boundaries: a kill during
	// restart r resumes by redoing climb r from scratch (same derived
	// RNG), converging to the uninterrupted result.
	p := conflictProfile(12, 6)
	// Enough restarts that the cumulative evaluation count crosses the
	// ctxCheckEvery poll threshold well before the search runs out.
	resumeMatches(t, p, 6, Options{Family: hash.FamilyPermutation, MaxInputs: 4, Restarts: 12, Seed: 11}, []int{2})
}

func TestResumeOfCompletedSearchIsIdempotent(t *testing.T) {
	p := conflictProfile(12, 6)
	base := Options{Family: hash.FamilyGeneralXOR}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	first, err := runResumable(t, p, 6, base, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runResumable(t, p, 6, base, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Estimated != first.Estimated || second.Iterations != first.Iterations ||
		second.Evaluated != first.Evaluated {
		t.Fatalf("re-resume diverged: %+v vs %+v", second, first)
	}
}

func TestResumeRejectsMismatchedSearch(t *testing.T) {
	p := conflictProfile(12, 6)
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := runResumable(t, p, 6, Options{Family: hash.FamilyGeneralXOR, Seed: 1}, path, 0); err != nil {
		t.Fatal(err)
	}
	_, err := runResumable(t, p, 6, Options{Family: hash.FamilyGeneralXOR, Seed: 2}, path, 0)
	if !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("seed mismatch: err = %v, want wrapped ErrProfileMismatch", err)
	}
	_, err = runResumable(t, p, 6, Options{Family: hash.FamilyBitSelect, Seed: 1}, path, 0)
	if !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("family mismatch: err = %v, want wrapped ErrProfileMismatch", err)
	}
}

func TestResumeWithoutPathRejected(t *testing.T) {
	p := conflictProfile(12, 6)
	if _, err := Construct(context.Background(), p, 6, Options{Resume: true}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("Resume without CheckpointPath: err = %v, want wrapped ErrInvalidOptions", err)
	}
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
	res, err := Anneal(ctx, p, 6, AnnealOptions{Steps: 5000})
	if !errors.Is(err, xerr.ErrCanceled) || !res.Degraded || res.Matrix.Cols == nil {
		t.Fatalf("Anneal: res=%+v err=%v, want degraded best-so-far + ErrCanceled", res, err)
	}
	res, err = Constructive(ctx, p, 6, 4, 32)
	if !errors.Is(err, xerr.ErrCanceled) || !res.Degraded || res.Matrix.Cols == nil {
		t.Fatalf("Constructive: res=%+v err=%v, want degraded best-so-far + ErrCanceled", res, err)
	}
}
