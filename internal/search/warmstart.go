package search

// Warm-started search: continue climbing from an existing index matrix
// instead of the conventional start. The serving loop re-tunes against
// a drifting windowed profile, and the previous epoch's H is almost
// always a better starting point than modulo — steepest descent from
// it converges in a handful of moves when the workload has only
// shifted slightly, and cannot end worse than where it started.
//
// Mechanically a warm start is checkpoint-resume with a synthesised
// snapshot: WarmSnapshot packages the matrix's null space and its
// Eq. 4 score as a mid-climb Snapshot at iteration 0, and the ordinary
// resume path does the rest. The interop is exact — persisting the
// synthesised snapshot with SaveSnapshot and resuming it through
// Construct yields the same trajectory as ConstructWarm
// (warmstart_test.go compares the two move for move).

import (
	"context"
	"fmt"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// ConstructWarm is Construct with the first climb warm-started
// from an existing matrix. Only the general-XOR null-space search can
// resume mid-climb state, so opt.Family must be FamilyGeneralXOR with
// MaxInputs 0, and opt.Resume must be off (a disk snapshot and a warm
// seed would splice two different trajectories). Restarts beyond the
// first climb draw their random starting points exactly as in the
// cold search.
func ConstructWarm(ctx context.Context, p *profile.Profile, m int, from gf2.Matrix, opt Options) (Result, error) {
	sn, err := WarmSnapshot(p, m, from, opt)
	if err != nil {
		return Result{}, err
	}
	return construct(ctx, p, m, opt, sn)
}

// WarmSnapshot synthesises the mid-climb snapshot a warm start resumes
// from: the null space of `from` as the current basis, its Eq. 4
// estimate as the current score, zero moves taken. The result is a
// valid Snapshot — SaveSnapshot + Resume through Construct is
// equivalent to ConstructWarm.
func WarmSnapshot(p *profile.Profile, m int, from gf2.Matrix, opt Options) (*Snapshot, error) {
	n := p.N
	if m <= 0 || m >= n {
		return nil, errOutOfRange(m, n)
	}
	if opt.Family != hash.FamilyGeneralXOR || opt.MaxInputs != 0 {
		return nil, fmt.Errorf("search: warm start needs the general-XOR family with unlimited fan-in "+
			"(got family %v, maxInputs %d): %w", opt.Family, opt.MaxInputs, xerr.ErrInvalidOptions)
	}
	if opt.Resume {
		return nil, fmt.Errorf("search: warm start and Resume are mutually exclusive: %w", xerr.ErrInvalidOptions)
	}
	if from.N != n || from.M != m {
		return nil, fmt.Errorf("search: warm-start matrix is %dx%d, search wants %dx%d: %w",
			from.N, from.M, n, m, xerr.ErrInvalidOptions)
	}
	if from.Rank() != m {
		return nil, fmt.Errorf("search: warm-start matrix is rank-deficient: %w", xerr.ErrInvalidOptions)
	}
	ns := from.NullSpace()
	return &Snapshot{
		N: n, M: m, Family: opt.Family, MaxInputs: opt.MaxInputs, Seed: opt.Seed,
		Restart:   0,
		HaveClimb: true,
		Basis:     append([]gf2.Vec(nil), ns.Basis...),
		CurEst:    p.EstimateSubspace(ns),
	}, nil
}
