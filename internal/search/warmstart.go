package search

// Warm-started search: continue climbing from an existing index matrix
// instead of the conventional start. The serving loop re-tunes against
// a drifting windowed profile, and the previous epoch's H is almost
// always a better starting point than modulo — steepest descent from
// it converges in a handful of moves when the workload has only
// shifted slightly, and cannot end worse than where it started.
//
// Mechanically the first null-space climb starts from the matrix's
// null space instead of the conventional one; everything after that
// (the descent, the restarts) is the cold search.

import (
	"context"
	"fmt"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// ConstructWarm is Construct with the first climb warm-started from an
// existing matrix. Only the general-XOR null-space search climbs from
// an arbitrary null space, so opt.Family must be FamilyGeneralXOR with
// MaxInputs 0. Restarts beyond the first climb draw their random
// starting points exactly as in the cold search.
func ConstructWarm(ctx context.Context, p *profile.Profile, m int, from gf2.Matrix, opt Options) (Result, error) {
	n := p.N
	if m <= 0 || m >= n {
		return Result{}, errOutOfRange(m, n)
	}
	if opt.Family != hash.FamilyGeneralXOR || opt.MaxInputs != 0 {
		return Result{}, fmt.Errorf("search: warm start needs the general-XOR family with unlimited fan-in "+
			"(got family %v, maxInputs %d): %w", opt.Family, opt.MaxInputs, xerr.ErrInvalidOptions)
	}
	if from.N != n || from.M != m {
		return Result{}, fmt.Errorf("search: warm-start matrix is %dx%d, search wants %dx%d: %w",
			from.N, from.M, n, m, xerr.ErrInvalidOptions)
	}
	if from.Rank() != m {
		return Result{}, fmt.Errorf("search: warm-start matrix is rank-deficient: %w", xerr.ErrInvalidOptions)
	}
	ns := from.NullSpace()
	return construct(ctx, p, m, opt, &ns)
}
