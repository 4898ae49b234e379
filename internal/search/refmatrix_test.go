package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
)

// referenceClimbMatrix is the matrix-space climb as it stood before the
// syndrome-group scorer: every distinct neighbour null space is scored
// by EstimateSubspace, behind a null-space memo and a per-round key set
// that skip repeats and rank-deficient neighbours.
func (s *state) referenceClimbMatrix(cur gf2.Matrix, neighbors func(h gf2.Matrix, emit func(gf2.Matrix))) (Result, error) {
	walkCost := uint64(1) << uint(s.n-s.m)
	res := Result{Lookups: walkCost}
	curEst := s.p.EstimateMatrix(cur)
	// Estimate memo keyed by canonical null space: distinct matrices
	// with the same null space incur the same misses (paper Eq. 2), so
	// they are scored at most once across the whole climb.
	memo := map[string]uint64{cur.NullSpace().Key(): curEst}
	// The neighbor callback cannot return an error, so a cancellation
	// observed inside it is parked in ctxErr; every later callback then
	// returns immediately and the loop surfaces the error after the
	// enumeration unwinds — still well within one hill-climbing move.
	var ctxErr error
	for {
		bestEst := curEst
		var best *gf2.Matrix
		curKey := cur.NullSpace().Key()
		seenThisRound := map[string]bool{curKey: true}
		neighbors(cur, func(nb gf2.Matrix) {
			if ctxErr != nil {
				return
			}
			if ctxErr = s.checkEvery(); ctxErr != nil {
				return
			}
			ns := nb.NullSpace()
			if ns.Dim() != s.n-s.m {
				return // rank-deficient: invalid index function
			}
			key := ns.Key()
			if seenThisRound[key] {
				return // equivalent neighbor already scored this round
			}
			seenThisRound[key] = true
			est, ok := memo[key]
			if !ok {
				est = s.p.EstimateSubspace(ns)
				memo[key] = est
				res.Evaluated++
				res.Lookups += walkCost
			} else {
				res.MemoHits++
			}
			if est < bestEst {
				bestEst = est
				best = &nb
			}
		})
		if ctxErr != nil {
			// Interrupted: return the best state reached so far, tagged
			// Degraded, alongside the error — the anytime contract.
			res.Matrix = cur
			res.Estimated = curEst
			res.Degraded = true
			return res, ctxErr
		}
		if best == nil {
			break
		}
		cur = *best
		curEst = bestEst
		res.Iterations++
		s.emit(res.Iterations, res.Evaluated, curEst)
	}
	res.Matrix = cur
	res.Estimated = curEst
	return res, nil
}

// referenceMatrixConstruct runs a matrix-space search with
// referenceClimbMatrix in place of climbMatrix, over the same start
// states and neighbour generators, and returns the result and its
// per-move Progress trace.
func referenceMatrixConstruct(t *testing.T, p *profile.Profile, m int, opt Options) (Result, []Progress) {
	t.Helper()
	var trace []Progress
	opt.Progress = func(pr Progress) { trace = append(trace, pr) }
	s := &state{ctx: context.Background(), p: p, n: p.N, m: m, opt: opt}
	var space func(*state, int) (gf2.Matrix, neighbours)
	switch {
	case opt.Family == hash.FamilyPermutation:
		space = (*state).permutationSpace
	case opt.Family == hash.FamilyBitSelect:
		space = (*state).bitSelectSpace
	case opt.Family == hash.FamilyGeneralXOR && opt.MaxInputs > 0:
		space = (*state).generalLimitedSpace
	default:
		t.Fatalf("no matrix space for %+v", opt)
	}
	for r := 0; r <= opt.Restarts; r++ {
		s.restart = r
		s.rng = rand.New(rand.NewSource(restartSeed(opt.Seed, r)))
		cur, next := space(s, r)
		res, err := s.referenceClimbMatrix(cur, func(h gf2.Matrix, emit func(gf2.Matrix)) {
			next(h, func(j int, col gf2.Vec) {
				nb := h.Clone()
				nb.Cols[j] = col
				emit(nb)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		s.fold(res)
	}
	return s.finalize(p, m), trace
}

// wideBlocks mixes power-of-two strides from random bases anywhere in
// the n-bit block space with uniform noise, so conflict vectors reach
// every address bit.
func wideBlocks(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(gf2.Mask(n))
	var blocks []uint64
	for len(blocks) < 4000 {
		if rng.Intn(4) == 0 {
			for i := 0; i < 16; i++ {
				blocks = append(blocks, rng.Uint64()&mask)
			}
			continue
		}
		stride := uint64(1) << uint(3+rng.Intn(n-3))
		base := rng.Uint64() & mask
		for rep := 0; rep < 3; rep++ {
			for i := uint64(0); i < 20; i++ {
				blocks = append(blocks, (base+i*stride)&mask)
			}
		}
	}
	return blocks
}

// sparseCopy returns p with its flat table moved into the sparse map,
// at the same n.
func sparseCopy(p *profile.Profile) *profile.Profile {
	sp := *p
	sp.Table = nil
	sp.Sparse = make(map[uint64]uint64)
	p.ForEachNonZero(func(v gf2.Vec, c uint64) { sp.Sparse[uint64(v)] = c })
	return &sp
}

// TestMatrixClimbMatchesReference is the differential oracle of the
// matrix-space climbs: on flat and sparse profiles at n = 16…24, every
// matrix family, with and without restarts, must return the reference
// climb's matrix, estimates and move count, and report the same best
// estimate after every move. Evaluated and Lookups count different
// work and are not compared.
func TestMatrixClimbMatchesReference(t *testing.T) {
	families := []Options{
		{Family: hash.FamilyPermutation, MaxInputs: 2},
		{Family: hash.FamilyPermutation, MaxInputs: 4},
		{Family: hash.FamilyPermutation},
		{Family: hash.FamilyGeneralXOR, MaxInputs: 3},
		{Family: hash.FamilyBitSelect},
	}
	moved := 0
	// The reference walks 2^(n−m) flat entries per candidate, so m
	// grows with n.
	for _, g := range []struct{ n, m int }{{16, 8}, {20, 10}, {24, 13}} {
		n, m := g.n, g.m
		flat := profile.Build(wideBlocks(int64(n), n), n, 1<<m)
		for backend, p := range map[string]*profile.Profile{"flat": flat, "sparse": sparseCopy(flat)} {
			for _, fam := range families {
				for _, restarts := range []int{0, 2} {
					opt := fam
					opt.Restarts, opt.Seed = restarts, 5
					name := fmt.Sprintf("n=%d/%s/%v-%d/restarts=%d", n, backend, opt.Family, opt.MaxInputs, restarts)
					want, wantTrace := referenceMatrixConstruct(t, p, m, opt)
					var gotTrace []Progress
					opt.Progress = func(pr Progress) { gotTrace = append(gotTrace, pr) }
					got, err := Construct(context.Background(), p, m, opt)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case !got.Matrix.Equal(want.Matrix):
						t.Errorf("%s: matrix\n%v\nwant\n%v", name, got.Matrix, want.Matrix)
					case got.Estimated != want.Estimated || got.Baseline != want.Baseline || got.Iterations != want.Iterations:
						t.Errorf("%s: estimated/baseline/iterations %d/%d/%d, want %d/%d/%d", name,
							got.Estimated, got.Baseline, got.Iterations, want.Estimated, want.Baseline, want.Iterations)
					case !reflect.DeepEqual(bests(gotTrace), bests(wantTrace)):
						t.Errorf("%s: per-move bests %v, want %v", name, bests(gotTrace), bests(wantTrace))
					}
					moved += got.Iterations
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no climb moved: the differential compares only start states")
	}
}

// bests projects a Progress trace onto (restart, iteration, best).
func bests(trace []Progress) [][3]uint64 {
	out := make([][3]uint64, len(trace))
	for i, pr := range trace {
		out[i] = [3]uint64{uint64(pr.Restart), uint64(pr.Iteration), pr.Best}
	}
	return out
}
