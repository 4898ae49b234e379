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
//     toggle or swap one extra input.
//
//   - Bit-selecting functions ("1-in") are searched over m-subsets of
//     the address bits with single-position swap neighbors.
//
// Every climb, and the constructive heuristic, scores its neighbours
// with one scorer: once per move it groups the histogram support by
// syndrome under the current function and sums a few groups per
// neighbour (DESIGN.md §10).
//
// Construct is the one entry point. Options.Algorithm swaps the hill
// climber for simulated annealing or the constructive heuristic
// (extensions, §3.3); Options.Warm starts the general-XOR climb from
// an existing function.
//
// Construct takes a context, checks it between candidate evaluations
// and returns a wrapped xerr.ErrCanceled within one hill-climbing move
// of the context being canceled.
package search

import (
	"context"
	"fmt"
	"math/rand"

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
	// Restarts adds this many extra climbs from random starting points,
	// keeping the best overall result. 0 reproduces the paper, which
	// starts once from the conventional function.
	Restarts int
	// Seed drives restart randomisation; ignored when Restarts is 0.
	Seed int64
	// Progress, when non-nil, receives a Progress snapshot after every
	// hill-climbing move (and at the end of each climb). It is called
	// synchronously from the search goroutine; keep it fast.
	Progress func(Progress)
	// Algorithm selects the search; the zero value is the paper's hill
	// climber. Restarts apply to the hill climber only.
	Algorithm Algorithm
	// Warm, when set, replaces the conventional start of the first
	// climb. Only the general-XOR null-space climb (MaxInputs 0) climbs
	// from an arbitrary function; every other search ignores Warm.
	Warm gf2.Matrix
}

// Algorithm is a search strategy over a function family.
type Algorithm int

const (
	// HillClimb is the paper's steepest descent (§3.2), for every family.
	HillClimb Algorithm = iota
	// Anneal is simulated annealing over general-XOR null spaces.
	Anneal
	// Constructive is the greedy covering heuristic for
	// permutation-based functions: one permutation-climb step per
	// uncovered hot conflict vector.
	Constructive
)

// String returns the algorithm's name: hillclimb, anneal or constructive.
func (a Algorithm) String() string {
	switch a {
	case HillClimb:
		return "hillclimb"
	case Anneal:
		return "anneal"
	case Constructive:
		return "constructive"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// CheckAlgorithm rejects an unknown algorithm or family, an algorithm
// paired with a family it cannot search, and annealing under a fan-in
// bound (its moves ignore MaxInputs), with a wrapped
// xerr.ErrInvalidOptions.
func (opt Options) CheckAlgorithm() error {
	want := opt.Family // the hill climber searches every family
	switch opt.Algorithm {
	case HillClimb:
	case Anneal:
		want = hash.FamilyGeneralXOR
	case Constructive:
		want = hash.FamilyPermutation
	default:
		return fmt.Errorf("search: unknown algorithm %v: %w", opt.Algorithm, xerr.ErrInvalidOptions)
	}
	switch {
	case opt.Family != want:
		return fmt.Errorf("search: %v searches only %v functions, not %v: %w",
			opt.Algorithm, want, opt.Family, xerr.ErrInvalidOptions)
	case opt.Algorithm == Anneal && opt.MaxInputs != 0:
		return fmt.Errorf("search: anneal searches unbounded general-XOR functions, so MaxInputs must be 0, not %d: %w",
			opt.MaxInputs, xerr.ErrInvalidOptions)
	case opt.Family < hash.FamilyBitSelect || opt.Family > hash.FamilyGeneralXOR:
		return fmt.Errorf("search: unknown family %v: %w", opt.Family, xerr.ErrInvalidOptions)
	}
	return nil
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
	// Lookups counts the histogram entries the search reads, Baseline's
	// estimate excluded. The hill climbers and the constructive
	// heuristic count the whole support once per load (the start and
	// each move) plus the two syndrome groups each matrix-space
	// candidate sums (DESIGN.md §10); annealing counts 2^(n−m) per
	// proposal it estimates, its starting estimate being the baseline.
	Lookups uint64
	// MemoHits is always 0. It stays only because the benchmark harness
	// reads it, and goes when that harness reads the runtime's counters.
	MemoHits uint64
	// Degraded marks a best-so-far result returned from a canceled or
	// deadline-expired search: Matrix and Estimated hold the best
	// state reached before the interruption (at worst the climb's
	// starting point), and Iterations/Evaluated tell how much work was
	// completed. A degraded result is always a valid index function —
	// just not necessarily a local optimum.
	Degraded bool
	// Confidence qualifies Estimated when the profile was built with
	// sampled conflict walks (profile.SampleOptions) or is a sketch that
	// has pruned: the scaled estimate, its confidence interval and the
	// sketch's slack, so callers can report "misses(H) = X ± ε" or a
	// lower bound. Zero-valued for exact profiles — Estimated is then
	// the exact Eq. 4 count and needs no qualifier.
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

// Construct searches for an m-set-bit index function minimising the
// profile's miss estimate with opt.Algorithm. The searches check ctx
// between candidate evaluations (every ctxCheckEvery of them), so a
// canceled context aborts the search within one hill-climbing move and
// the call returns a wrapped xerr.ErrCanceled.
func Construct(ctx context.Context, p *profile.Profile, m int, opt Options) (Result, error) {
	n := p.N
	if m <= 0 || m >= n {
		return Result{}, fmt.Errorf("search: m=%d out of range (0, %d): %w", m, n, xerr.ErrInvalidOptions)
	}
	if opt.MaxInputs < 0 {
		return Result{}, fmt.Errorf("search: negative MaxInputs: %w", xerr.ErrInvalidOptions)
	}
	if opt.Restarts < 0 {
		return Result{}, fmt.Errorf("search: negative Restarts: %w", xerr.ErrInvalidOptions)
	}
	if err := opt.CheckAlgorithm(); err != nil {
		return Result{}, err
	}
	s := &state{ctx: ctx, p: p, n: n, m: m, opt: opt}
	climb, climbs := (*state).climbNullSpace, opt.Restarts+1
	switch {
	case opt.Algorithm == Anneal:
		climb, climbs = (*state).anneal, 1
	case opt.Algorithm == Constructive:
		climb, climbs = (*state).constructive, 1
	case opt.Family == hash.FamilyPermutation:
		climb = matrixClimb((*state).permutationSpace)
	case opt.Family == hash.FamilyBitSelect:
		climb = matrixClimb((*state).bitSelectSpace)
	case opt.MaxInputs > 0:
		// Fan-in-limited general XOR: search matrix space under the
		// weight constraint instead of unconstrained null spaces.
		climb = matrixClimb((*state).generalLimitedSpace)
	case opt.Warm.Cols != nil:
		if w := opt.Warm; w.N != n || w.M != m || w.Rank() != m {
			return Result{}, fmt.Errorf("search: warm start is a rank-%d %dx%d matrix, search wants rank %d %dx%d: %w",
				w.Rank(), w.N, w.M, m, n, m, xerr.ErrInvalidOptions)
		}
	}
	if opt.Algorithm != Anneal {
		s.nb = &neighbourhood{support: p.Support(), n: n}
	}
	// Run every climb, keep the best result, and accumulate the
	// iteration/evaluation totals exactly once per climb. Each restart
	// derives its own RNG from (Seed, restart index).
	for r := 0; r < climbs; r++ {
		s.restart = r
		s.rng = rand.New(rand.NewSource(restartSeed(opt.Seed, r)))
		cand, err := climb(s, r)
		s.fold(cand)
		if err != nil {
			// The climb's best-so-far (Degraded) still folds into the
			// final answer: the caller gets a usable matrix plus the
			// cancellation error, not just the error.
			out := s.finalize(p, m)
			out.Degraded = true
			return out, err
		}
	}
	return s.finalize(p, m), nil
}

// matrixClimb runs climbMatrix over a matrix-space family.
func matrixClimb(space func(s *state, start int) (gf2.Matrix, neighbours)) func(*state, int) (Result, error) {
	return func(s *state, start int) (Result, error) { return s.climbMatrix(space(s, start)) }
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
// evaluations of the matrix-space steps (the climbs and the
// constructive heuristic) and in annealing steps. Each one reads at
// most the support or 2^(n−m) entries, so one poll per 1 K evaluations
// is unmeasurable yet keeps the cancellation latency far below a
// single hill-climbing move. The null-space climb polls once per move
// instead: a move scores its whole neighbourhood at once.
const ctxCheckEvery = 1024

// state carries shared search context.
type state struct {
	ctx     context.Context
	p       *profile.Profile
	n       int
	m       int
	opt     Options
	rng     *rand.Rand
	nb      *neighbourhood // the one scorer, shared by every climb
	restart int            // current restart index, for Progress snapshots
	tick    int            // evaluations since the last ctx check

	// Accumulators over completed climbs.
	best       Result
	totIters   int
	totEvals   int
	totLookups uint64
}

// fold accumulates one climb's outcome into the cross-restart state.
func (s *state) fold(cand Result) {
	s.totIters += cand.Iterations
	s.totEvals += cand.Evaluated
	s.totLookups += cand.Lookups
	if cand.Matrix.Cols == nil {
		return // climb aborted before producing any state
	}
	if s.best.Matrix.Cols == nil || cand.Estimated < s.best.Estimated {
		s.best = cand
	}
}

// finalize assembles the cross-restart accumulators into the returned
// Result.
func (s *state) finalize(p *profile.Profile, m int) Result {
	out := s.best
	out.Iterations = s.totIters
	out.Evaluated = s.totEvals
	out.Lookups = s.totLookups
	out.Baseline = p.EstimateConventional(m)
	if p.SampleK > 1 || p.Slack > 0 {
		out.Confidence = p.ConfidenceFor(out.Estimated)
	}
	return out
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
