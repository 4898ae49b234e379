package core

// The staged form of the pipeline. Pipeline runs the three stages of
// the paper's construction algorithm — profile (Fig. 1), search (§3.2),
// validate (§6) — individually, threads a context through every hot
// loop beneath them, and reports progress through an event sink.
// Profile and Validate read the trace as a trace.Source. Tune and
// TuneProfiled are the one-call conveniences on top.

import (
	"context"
	"fmt"

	"xoridx/internal/cache"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/search"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// Stage identifies one pipeline stage in an Event.
type Stage string

// The three stages of the construction algorithm.
const (
	StageProfile  Stage = "profile"  // Fig. 1 LRU conflict-vector pass
	StageSearch   Stage = "search"   // §3.2 design-space search
	StageValidate Stage = "validate" // exact simulation + §6 fallback
)

// EventKind distinguishes the notifications a Sink receives.
type EventKind int

const (
	// StageStarted is emitted once when a stage begins.
	StageStarted EventKind = iota
	// StageFinished is emitted once when a stage completes.
	StageFinished
	// SearchProgress is emitted after every hill-climbing move of the
	// search stage. Restart, Iteration, Evaluated and Best are set.
	SearchProgress
)

// Event is one progress notification from the pipeline.
type Event struct {
	Kind  EventKind
	Stage Stage

	// Round tags which tuning round of a resumable pipeline emitted the
	// event: 0 for one-shot runs, the caller-chosen round index for
	// SearchRound (the serving loop passes its rotation count, so a
	// sink can attribute interleaved progress to the right re-tune).
	Round int

	// Search progress (Kind == SearchProgress, and on the search
	// stage's StageFinished event as final totals).
	Restart   int    // restart index (0 = the conventional start)
	Iteration int    // hill-climbing moves taken
	Evaluated int    // candidate evaluations performed
	Best      uint64 // best Eq. 4 estimate so far
}

// Sink consumes pipeline events. Emit is called synchronously from the
// stage goroutine, so implementations must be fast and must not block;
// they also must be safe for concurrent use if the same Sink is shared
// across concurrently running pipelines.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a plain function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Pipeline runs the construction algorithm stage by stage. The zero
// value is not usable; fill in Config. Events is optional.
//
// The one-call helpers cover the common case:
//
//	res, err := core.Tune(ctx, tr, cfg)
//
// while the staged form lets a caller reuse a profile across several
// searches, or interleave its own logic between stages:
//
//	pl := core.Pipeline{Config: cfg, Events: sink}
//	p, err := pl.Profile(ctx, tr)        // Fig. 1
//	sres, err := pl.Search(ctx, p)       // §3.2
//	res, err := pl.Validate(ctx, tr, p, sres) // §6
type Pipeline struct {
	// Config describes the tuning problem; defaults are applied by each
	// stage.
	Config Config
	// Events receives progress notifications; nil disables them.
	Events Sink
}

// emit delivers e when a sink is installed.
func (pl *Pipeline) emit(e Event) {
	if pl.Events != nil {
		pl.Events.Emit(e)
	}
}

// Profile runs the Fig. 1 profiling stage over the trace:
// profile.BuildStream reads it chunk by chunk, so no block slice of the
// whole trace is built. With Config.Workers > 1 the trace is profiled
// in that many contiguous slices at once, each reading its own pass,
// and joined in order (bit-identical to one slice); the pass follows
// the Config's sampling and backend knobs. The profile can be shared
// across TuneProfiled calls for the same trace and cache size.
//
// With Config.CheckpointPath set the pass snapshots periodically;
// Resume continues from an existing snapshot, whichever worker count
// wrote it, provided it was taken under the same sampling. On
// cancellation the pass returns the longest exact prefix it profiled,
// marked Degraded, alongside the error.
func (pl *Pipeline) Profile(ctx context.Context, src trace.Source) (*profile.Profile, error) {
	cfg, err := pl.Config.Normalized()
	if err != nil {
		return nil, err
	}
	pl.emit(Event{Kind: StageStarted, Stage: StageProfile})
	p, err := profile.BuildStream(ctx, src, cfg.BlockBytes, cfg.AddrBits,
		cfg.CacheBytes/cfg.BlockBytes, cfg.profileOptions())
	if err != nil {
		return p, err
	}
	pl.emit(Event{Kind: StageFinished, Stage: StageProfile})
	return p, nil
}

// Search runs the §3.2 design-space search stage against a profile
// built by Profile (or profile.Build directly). Hill-climbing progress
// is reported through Events as SearchProgress events. It is round 0
// of SearchRound with no warm start — the one-shot form.
func (pl *Pipeline) Search(ctx context.Context, p *profile.Profile) (search.Result, error) {
	return pl.SearchRound(ctx, p, gf2.Matrix{}, 0)
}

// SearchRound is the resumable-round form of Search: one tuning round
// of a long-running loop that re-searches a drifting profile many
// times over the pipeline's lifetime. Every event the round emits
// carries the given round index, so a shared Sink can attribute
// interleaved progress streams.
//
// A non-zero warm matrix is the search's Options.Warm: it seeds the
// general-XOR climb with unlimited fan-in at that function instead of
// the conventional start, and every other search ignores it. The warm
// seed is an optimisation hint, not a contract, and a serving loop
// tuning a permutation-family function must still make progress.
func (pl *Pipeline) SearchRound(ctx context.Context, p *profile.Profile, warm gf2.Matrix, round int) (search.Result, error) {
	cfg := pl.Config.withDefaults()
	if err := cfg.validate(); err != nil {
		return search.Result{}, err
	}
	if err := checkProfile(p, cfg); err != nil {
		return search.Result{}, err
	}
	pl.emit(Event{Kind: StageStarted, Stage: StageSearch, Round: round})
	opt := cfg.searchOptions()
	opt.Warm = warm
	if pl.Events != nil {
		opt.Progress = func(sp search.Progress) {
			pl.emit(Event{
				Kind:      SearchProgress,
				Stage:     StageSearch,
				Round:     round,
				Restart:   sp.Restart,
				Iteration: sp.Iteration,
				Evaluated: sp.Evaluated,
				Best:      sp.Best,
			})
		}
	}
	sres, err := search.Construct(ctx, p, cfg.SetBits(), opt)
	if err != nil {
		// sres may carry a Degraded best-so-far matrix; pass it up so
		// an interrupted pipeline still yields a usable function.
		return sres, err
	}
	pl.emit(Event{
		Kind:      StageFinished,
		Stage:     StageSearch,
		Round:     round,
		Restart:   cfg.Restarts,
		Iteration: sres.Iterations,
		Evaluated: sres.Evaluated,
		Best:      sres.Estimated,
	})
	return sres, nil
}

// Validate runs the exact-simulation stage: it simulates the conventional
// baseline and the searched function together in one pass of the
// trace, and applies the §6 fallback guard, producing the final Result.
func (pl *Pipeline) Validate(ctx context.Context, src trace.Source, p *profile.Profile, sres search.Result) (*Result, error) {
	cfg := pl.Config.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := cfg.SetBits()
	optFunc, err := hash.NewXOR(sres.Matrix)
	if err != nil {
		return nil, fmt.Errorf("core: invalid index matrix: %w", err)
	}
	pl.emit(Event{Kind: StageStarted, Stage: StageValidate})
	res := &Result{Search: sres, Profile: p, Func: optFunc}
	base := cache.Config{SizeBytes: cfg.CacheBytes, BlockBytes: cfg.BlockBytes, Ways: cfg.Ways, Index: gf2.Identity(cfg.AddrBits, m)}
	opt := base
	opt.Index = sres.Matrix
	st, err := cache.Simulate(ctx, src, base, opt)
	if err != nil {
		// The searched function is intact — only its exact validation
		// (and the §6 fallback guard) is missing. Hand it back Degraded
		// with zeroed simulation stats rather than dropping it.
		res.Degraded = true
		return res, err
	}
	res.Baseline, res.Optimized = st[0], st[1]
	applyFallback(res, cfg, m)
	pl.emit(Event{Kind: StageFinished, Stage: StageValidate})
	return res, nil
}

// Tune runs all three stages in order on a trace, with cooperative
// cancellation and optional progress events: every stage checks ctx
// periodically (see DESIGN.md §9 for
// the granularity per layer) and returns a wrapped ErrCanceled when it
// is done. events may be nil.
func Tune(ctx context.Context, src trace.Source, cfg Config, events Sink) (*Result, error) {
	pl := Pipeline{Config: cfg, Events: events}
	p, err := pl.Profile(ctx, src)
	if err != nil {
		return nil, err
	}
	return TuneProfiled(ctx, src, p, cfg, events)
}

// TuneProfiled runs search and then validation with a pre-built
// profile, letting callers amortise profiling across several searches
// (e.g. the 2-in/4-in/16-in sweep of Table 2). events may be nil. On
// cancellation it returns interrupted's result alongside the wrapped
// ErrCanceled.
func TuneProfiled(ctx context.Context, src trace.Source, p *profile.Profile, cfg Config, events Sink) (*Result, error) {
	pl := Pipeline{Config: cfg, Events: events}
	sres, err := pl.Search(ctx, p)
	if err != nil {
		return interrupted(p, sres), err
	}
	return pl.Validate(ctx, src, p, sres)
}

// interrupted wraps the best-so-far matrix of a search that stopped
// early as a Degraded Result, whose Search field tells how many moves
// and evaluations completed; nil when the search left no usable matrix.
func interrupted(p *profile.Profile, sres search.Result) *Result {
	if !sres.Degraded || sres.Matrix.Cols == nil {
		return nil
	}
	res := &Result{Search: sres, Profile: p, Degraded: true}
	if f, err := hash.NewXOR(sres.Matrix); err == nil {
		res.Func = f
	}
	return res
}

// Check returns a wrapped ErrCanceled when ctx is done and nil
// otherwise — the cancellation probe the pipeline layers use, exported
// for callers that interleave their own work between stages.
func Check(ctx context.Context) error {
	return xerr.Check(ctx)
}
