// Package search implements the design-space search phase of the
// paper's construction algorithm (§3.2): steepest-descent hill climbing
// driven by the profile-based miss estimator of package profile.
//
// Three function families are supported, matching the paper's
// experiments:
//
//   - General XOR functions are searched directly in null-space space.
//     Two null spaces are neighbors when their intersection has
//     dimension one less than their own (the paper's definition). The
//     search starts from the null space of the conventional modulo
//     function and moves to the best neighbor until no neighbor
//     improves the estimate.
//
//   - Permutation-based functions with at most k inputs per XOR gate
//     ("2-in", "4-in", "16-in") are searched in matrix space: a state is
//     the set of extra high-order inputs per index bit; neighbors
//     toggle or swap one extra input. Evaluation still goes through the
//     null space, so equal-null-space states are never re-evaluated.
//
//   - Bit-selecting functions ("1-in") are searched over m-subsets of
//     the address bits with single-position swap neighbors.
//
// Every search has a context-aware variant (ConstructCtx, AnnealCtx,
// ConstructiveCtx) that checks for cancellation between candidate
// evaluations and returns a wrapped xerr.ErrCanceled within one
// hill-climbing move of the context being canceled.
package search

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// Options configures a search.
type Options struct {
	// Family selects the function family (default FamilyGeneralXOR).
	Family hash.Family
	// MaxInputs bounds the inputs per XOR gate for FamilyPermutation
	// and FamilyGeneralXOR; 0 means unlimited. FamilyBitSelect implies 1.
	MaxInputs int
	// MaxIterations caps the number of hill-climbing moves (0 = no cap).
	MaxIterations int
	// Restarts adds this many extra climbs from random starting points,
	// keeping the best overall result. 0 reproduces the paper, which
	// starts once from the conventional function.
	Restarts int
	// Seed drives restart randomisation; ignored when Restarts is 0.
	Seed int64
	// Workers parallelises neighbor evaluation for the general-XOR
	// null-space search: 0 or 1 = sequential (paper-faithful), > 1 =
	// that many goroutines, < 0 = GOMAXPROCS. Results are identical to
	// the sequential search.
	Workers int
	// NoIncremental disables the memoized coset-sum evaluator of the
	// general-XOR null-space search and scores every neighbor with a
	// full Gray-code walk, as the original implementation did. Results
	// are bit-identical either way; this knob exists for differential
	// testing and benchmarking.
	NoIncremental bool
	// Progress, when non-nil, receives a Progress snapshot after every
	// hill-climbing move (and at the end of each climb). It is called
	// synchronously from the search goroutine; keep it fast.
	Progress func(Progress)
	// CheckpointPath, when non-empty, makes the search write its state
	// to this file atomically — after every CheckpointEvery moves for
	// the general-XOR null-space climbs, and at every restart boundary
	// for all families — so a killed run can continue with Resume.
	CheckpointPath string
	// CheckpointEvery is the mid-climb snapshot cadence in
	// hill-climbing moves; 0 selects every move. Ignored without
	// CheckpointPath.
	CheckpointEvery int
	// Resume loads CheckpointPath (if it exists) and continues the
	// search from the recorded state. The resumed run is bit-identical
	// to an uninterrupted one: restart randomisation is derived per
	// restart index, and steepest descent is deterministic from any
	// snapshot state. The snapshot must match the search's geometry,
	// family, MaxInputs and Seed (wrapped xerr.ErrProfileMismatch
	// otherwise).
	Resume bool
}

// Progress is one search progress snapshot, delivered through
// Options.Progress after each hill-climbing move.
type Progress struct {
	Restart   int    // restart index (0 = the conventional start)
	Iteration int    // moves taken within this climb
	Evaluated int    // candidate evaluations within this climb so far
	Best      uint64 // best estimate found in this climb so far
}

// Result reports the outcome of a search.
type Result struct {
	Matrix     gf2.Matrix // best index matrix found
	Estimated  uint64     // estimated conflict misses of Matrix (Eq. 4)
	Baseline   uint64     // estimated conflict misses of modulo indexing
	Iterations int        // hill-climbing moves taken (all climbs)
	Evaluated  int        // candidate evaluations performed
	// Lookups counts histogram-read work units spent scoring
	// candidates: 2^k entries per Gray-code walk, the support entries
	// swept per memoized coset table, and two reads per table-served
	// candidate (see DESIGN.md §10). The baseline estimate is excluded.
	Lookups uint64
	// MemoHits counts candidate scores served from a memoized
	// hyperplane table or null-space key instead of the histogram.
	MemoHits uint64
	// Degraded marks a best-so-far result returned from a canceled or
	// deadline-expired search: Matrix and Estimated hold the best
	// state reached before the interruption (at worst the climb's
	// starting point), and Iterations/Evaluated tell how much work was
	// completed. A degraded result is always a valid index function —
	// just not necessarily a local optimum.
	Degraded bool
	// Confidence qualifies Estimated when the profile was built with
	// sampled conflict walks (profile.SampleOptions): the scaled
	// estimate and its confidence interval, so callers can report
	// "misses(H) = X ± ε". Zero-valued for exact profiles — Estimated
	// is then the exact Eq. 4 count and needs no interval.
	Confidence profile.Confidence
}

// Improvement returns the estimated fraction of conflict misses removed
// relative to conventional indexing (can be negative).
func (r Result) Improvement() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return 1 - float64(r.Estimated)/float64(r.Baseline)
}

// ConstructCtx searches for an m-set-bit index function minimising the
// profile's miss estimate. The climbs check ctx between candidate
// evaluations (every ctxCheckEvery of them), so a canceled context
// aborts the search within one hill-climbing move and the call returns
// a wrapped xerr.ErrCanceled.
func ConstructCtx(ctx context.Context, p *profile.Profile, m int, opt Options) (Result, error) {
	return constructCtx(ctx, p, m, opt, nil)
}

// constructCtx is the shared implementation behind ConstructCtx and
// ConstructWarmCtx. A non-nil warm snapshot seeds the first climb's
// mid-climb state (basis + score) exactly as a checkpoint resume
// would; ConstructWarmCtx synthesises it from a starting matrix.
func constructCtx(ctx context.Context, p *profile.Profile, m int, opt Options, warm *Snapshot) (Result, error) {
	n := p.N
	if m <= 0 || m >= n {
		return Result{}, errOutOfRange(m, n)
	}
	if opt.MaxInputs < 0 {
		return Result{}, fmt.Errorf("search: negative MaxInputs: %w", xerr.ErrInvalidOptions)
	}
	if opt.CheckpointEvery < 0 {
		return Result{}, fmt.Errorf("search: negative CheckpointEvery: %w", xerr.ErrInvalidOptions)
	}
	if opt.Resume && opt.CheckpointPath == "" {
		return Result{}, fmt.Errorf("search: Resume needs a CheckpointPath: %w", xerr.ErrInvalidOptions)
	}
	if opt.Family == hash.FamilyPermutation && opt.MaxInputs == 1 {
		// A 1-input permutation-based function is exactly modulo indexing.
		out := Result{
			Matrix:    gf2.Identity(n, m),
			Estimated: p.EstimateConventional(m),
			Baseline:  p.EstimateConventional(m),
		}
		if p.SampleK > 1 {
			out.Confidence = p.ConfidenceFor(out.Estimated)
		}
		return out, nil
	}
	var climb func(s *state, start int) (Result, error)
	switch opt.Family {
	case hash.FamilyGeneralXOR:
		switch {
		case opt.MaxInputs > 0:
			// Fan-in-limited general XOR: search matrix space under the
			// weight constraint instead of unconstrained null spaces.
			climb = (*state).climbGeneralLimited
		case opt.Workers != 0 && opt.Workers != 1:
			climb = (*state).climbNullSpaceParallel
		default:
			climb = (*state).climbNullSpace
		}
	case hash.FamilyPermutation:
		climb = (*state).climbPermutation
	case hash.FamilyBitSelect:
		climb = (*state).climbBitSelect
	default:
		return Result{}, fmt.Errorf("search: unknown family %v: %w", opt.Family, xerr.ErrInvalidOptions)
	}
	s := &state{ctx: ctx, p: p, n: n, m: m, opt: opt}
	if opt.Family == hash.FamilyGeneralXOR && opt.MaxInputs == 0 && !opt.NoIncremental {
		// The unconstrained null-space climbs share one incremental
		// evaluator: its hyperplane tables persist across moves,
		// restarts and workers.
		s.ev = newNullEvaluator(p)
	}
	startRestart := 0
	if opt.Resume {
		sn, err := LoadSnapshot(opt.CheckpointPath)
		switch {
		case err == nil:
			if sn.N != n || sn.M != m || sn.Family != opt.Family ||
				sn.MaxInputs != opt.MaxInputs || sn.Seed != opt.Seed {
				return Result{}, fmt.Errorf("search: snapshot is for n=%d m=%d family=%v maxInputs=%d seed=%d, "+
					"not this search: %w", sn.N, sn.M, sn.Family, sn.MaxInputs, sn.Seed, xerr.ErrProfileMismatch)
			}
			if sn.HaveClimb && climbResumable(opt) != nil {
				return Result{}, climbResumable(opt)
			}
			startRestart = sn.Restart
			s.haveBest = sn.HaveBest
			if sn.HaveBest {
				s.best = Result{Matrix: sn.Best, Estimated: sn.BestEst}
			}
			s.totIters, s.totEvals = sn.Iterations, sn.Evaluated
			s.totLookups, s.totHits = sn.Lookups, sn.MemoHits
			if sn.HaveClimb {
				s.resume = sn
			}
		case os.IsNotExist(err):
			// Cold start: no snapshot yet.
		default:
			return Result{}, err
		}
	}
	if warm != nil && s.resume == nil && startRestart == 0 {
		// Warm start: the first climb continues from the synthesised
		// snapshot instead of the conventional null space. An on-disk
		// snapshot (Resume) always wins over the warm seed — it encodes
		// strictly more completed work.
		s.resume = warm
	}
	// Run every climb, keep the best result, and accumulate the
	// iteration/evaluation totals exactly once per climb. Each restart
	// derives its own RNG from (Seed, restart index), so restart r is
	// reproducible without replaying restarts 0..r-1 — the property
	// checkpoint resume depends on.
	for r := startRestart; r <= opt.Restarts; r++ {
		s.restart = r
		s.rng = rand.New(rand.NewSource(restartSeed(opt.Seed, r)))
		cand, err := climb(s, r)
		if err != nil {
			// The climb's best-so-far (Degraded) still folds into the
			// final answer: the caller gets a usable matrix plus the
			// cancellation error, not just the error.
			s.fold(cand)
			out := s.finalize(p, m)
			out.Degraded = true
			return out, err
		}
		s.fold(cand)
		if opt.CheckpointPath != "" {
			// Restart boundary: the next run skips this climb entirely.
			if err := SaveSnapshot(opt.CheckpointPath, s.boundarySnapshot(r+1)); err != nil {
				out := s.finalize(p, m)
				out.Degraded = true
				return out, err
			}
		}
	}
	return s.finalize(p, m), nil
}

// climbResumable reports (as an error) why mid-climb resume is not
// available for the configured climb: only the general-XOR null-space
// searches carry their whole state in a basis. Matrix-family snapshots
// are written at restart boundaries only, so a mid-climb snapshot for
// one means the file is corrupt or hand-edited.
func climbResumable(opt Options) error {
	if opt.Family == hash.FamilyGeneralXOR && opt.MaxInputs == 0 {
		return nil
	}
	return fmt.Errorf("search: snapshot carries mid-climb state but family %v checkpoints at restart boundaries only: %w",
		opt.Family, xerr.ErrFormat)
}

// restartSeed derives restart r's private RNG seed (splitmix64 over
// the search seed and the restart index).
func restartSeed(seed int64, r int) int64 {
	z := uint64(seed) + uint64(r)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ctxCheckEvery is the cancellation-check granularity in candidate
// evaluations. Each evaluation walks up to 2^(n−m) profile entries, so
// one poll per 1 K evaluations is unmeasurable yet keeps the
// cancellation latency far below a single hill-climbing move.
const ctxCheckEvery = 1024

// state carries shared search context.
type state struct {
	ctx     context.Context
	p       *profile.Profile
	n       int
	m       int
	opt     Options
	rng     *rand.Rand
	ev      *nullEvaluator // incremental estimator; nil for the brute path
	restart int            // current restart index, for Progress snapshots
	tick    int            // evaluations since the last ctx check

	// Accumulators over completed climbs (plus, on a resumed run, the
	// completed work recorded in the snapshot).
	best       Result
	haveBest   bool
	totIters   int
	totEvals   int
	totLookups uint64
	totHits    uint64

	// resume holds mid-climb state loaded from a snapshot; the first
	// null-space climb consumes it (takeResume) instead of starting
	// from scratch.
	resume *Snapshot
}

// fold accumulates one climb's outcome into the cross-restart state.
func (s *state) fold(cand Result) {
	s.totIters += cand.Iterations
	s.totEvals += cand.Evaluated
	s.totLookups += cand.Lookups
	s.totHits += cand.MemoHits
	if cand.Matrix.Cols == nil {
		return // climb aborted before producing any state
	}
	if !s.haveBest || cand.Estimated < s.best.Estimated {
		s.best = cand
		s.haveBest = true
	}
}

// finalize assembles the cross-restart accumulators into the returned
// Result.
func (s *state) finalize(p *profile.Profile, m int) Result {
	out := s.best
	out.Iterations = s.totIters
	out.Evaluated = s.totEvals
	out.Lookups = s.totLookups
	out.MemoHits = s.totHits
	if s.ev != nil {
		out.Lookups += s.ev.lookups.Load()
		out.MemoHits += s.ev.hits.Load()
	}
	out.Baseline = p.EstimateConventional(m)
	if p.SampleK > 1 {
		out.Confidence = p.ConfidenceFor(out.Estimated)
	}
	return out
}

// takeResume hands the pending mid-climb snapshot to the climb that
// consumes it (exactly once).
func (s *state) takeResume() *Snapshot {
	sn := s.resume
	s.resume = nil
	return sn
}

// boundarySnapshot captures the state at a restart boundary:
// nextRestart is the first climb a resumed run still has to do.
func (s *state) boundarySnapshot(nextRestart int) *Snapshot {
	return &Snapshot{
		N: s.n, M: s.m, Family: s.opt.Family, MaxInputs: s.opt.MaxInputs, Seed: s.opt.Seed,
		Restart:  nextRestart,
		HaveBest: s.haveBest, Best: s.best.Matrix, BestEst: s.best.Estimated,
		Iterations: s.totIters, Evaluated: s.totEvals,
		Lookups: s.totLookups, MemoHits: s.totHits,
	}
}

// maybeCheckpoint persists mid-climb state after a hill-climbing move
// of the null-space climbs, at the configured cadence.
func (s *state) maybeCheckpoint(cur gf2.Subspace, curEst uint64, res *Result) error {
	if s.opt.CheckpointPath == "" {
		return nil
	}
	every := s.opt.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	if res.Iterations%every != 0 {
		return nil
	}
	sn := s.boundarySnapshot(s.restart)
	sn.HaveClimb = true
	sn.Basis = append([]gf2.Vec(nil), cur.Basis...)
	sn.CurEst = curEst
	sn.ClimbIterations = res.Iterations
	sn.ClimbEvaluated = res.Evaluated
	return SaveSnapshot(s.opt.CheckpointPath, sn)
}

func (s *state) capIterations(iter int) bool {
	return s.opt.MaxIterations > 0 && iter >= s.opt.MaxIterations
}

// checkEvery polls the context once per ctxCheckEvery calls. Call it
// before each candidate evaluation.
func (s *state) checkEvery() error {
	if s.tick++; s.tick < ctxCheckEvery {
		return nil
	}
	s.tick = 0
	return xerr.Check(s.ctx)
}

// emit delivers a Progress snapshot for the current climb, if a sink is
// installed.
func (s *state) emit(iteration, evaluated int, best uint64) {
	if s.opt.Progress != nil {
		s.opt.Progress(Progress{Restart: s.restart, Iteration: iteration, Evaluated: evaluated, Best: best})
	}
}

func errOutOfRange(m, n int) error {
	return fmt.Errorf("search: m=%d out of range (0, %d): %w", m, n, xerr.ErrInvalidOptions)
}
