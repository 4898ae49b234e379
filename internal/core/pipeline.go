package core

// The staged form of the pipeline. Pipeline runs the three stages of
// the paper's construction algorithm — profile (Fig. 1), search (§3.2),
// validate (§6) — individually, threads a context through every hot
// loop beneath them, and reports progress through an event sink.
// TuneCtx, TuneProfiledCtx and BuildProfileCtx are the one-call
// conveniences built on top of it.

import (
	"context"

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
//	res, err := core.TuneCtx(ctx, tr, cfg)
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

// Profile runs the Fig. 1 profiling stage: it extracts the block
// sequence and builds the conflict-vector histogram — ProfileSource
// over the in-memory trace.
func (pl *Pipeline) Profile(ctx context.Context, tr *trace.Trace) (*profile.Profile, error) {
	cfg, err := pl.Config.Normalized()
	if err != nil {
		return nil, err
	}
	return pl.ProfileSource(ctx, profile.Blocks(tr.Blocks(cfg.BlockBytes, cfg.AddrBits)))
}

// ProfileSource runs the Fig. 1 profiling stage over a block-source
// stream — the entry point for mmap-backed readers (trace.Open +
// StreamReader.BlockSource) and any trace too large to materialise.
// The source must yield block addresses already truncated to
// Config.AddrBits. The pass is sharded across Config.Workers when > 1
// (bit-identical to the sequential pass) and follows the Config's
// sampling and backend knobs.
//
// With Config.CheckpointPath set the pass snapshots every
// CheckpointEvery accesses; Resume continues from an existing snapshot,
// whichever worker count wrote it. On cancellation the sequential pass,
// and a checkpointed sharded pass, return the partial profile so far —
// marked Degraded and exact for the prefix it covers — alongside the
// error.
func (pl *Pipeline) ProfileSource(ctx context.Context, src profile.BlockSource) (*profile.Profile, error) {
	cfg, err := pl.Config.Normalized()
	if err != nil {
		return nil, err
	}
	pl.emit(Event{Kind: StageStarted, Stage: StageProfile})
	p, err := profile.BuildStream(ctx, src, cfg.AddrBits, cfg.CacheBytes/cfg.BlockBytes, cfg.profileOptions())
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
// A non-zero warm matrix seeds the climb at that function instead of
// the conventional start (search.ConstructWarmCtx) when the configured
// family supports it — general XOR with unlimited fan-in, no Resume.
// Other configurations fall back to the cold search: the warm seed is
// an optimisation hint, not a contract, and a serving loop tuning a
// permutation-family function must still make progress.
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
	var (
		sres search.Result
		err  error
	)
	if warm.Cols != nil && cfg.Family == hash.FamilyGeneralXOR && cfg.MaxInputs == 0 && !opt.Resume {
		sres, err = search.ConstructWarmCtx(ctx, p, cfg.SetBits(), warm, opt)
	} else {
		sres, err = search.ConstructCtx(ctx, p, cfg.SetBits(), opt)
	}
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

// Validate runs the exact-simulation stage: it simulates the searched
// function and the conventional baseline over the trace and applies the
// §6 fallback guard, producing the final Result.
func (pl *Pipeline) Validate(ctx context.Context, tr *trace.Trace, p *profile.Profile, sres search.Result) (*Result, error) {
	cfg := pl.Config.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := cfg.SetBits()
	optFunc, err := hash.NewXOR(sres.Matrix)
	if err != nil {
		return nil, errInvalidMatrix(err)
	}
	pl.emit(Event{Kind: StageStarted, Stage: StageValidate})
	res := &Result{Search: sres, Profile: p, Func: optFunc}
	if res.Baseline, err = simulateCtx(ctx, tr, cfg, hash.Modulo(cfg.AddrBits, m)); err != nil {
		// The searched function is intact — only its exact validation
		// (and the §6 fallback guard) is missing. Hand it back Degraded
		// with zeroed simulation stats rather than dropping it.
		res.Baseline = cache.Stats{}
		res.Degraded = true
		return res, err
	}
	if res.Optimized, err = simulateCtx(ctx, tr, cfg, optFunc); err != nil {
		res.Baseline, res.Optimized = cache.Stats{}, cache.Stats{}
		res.Degraded = true
		return res, err
	}
	applyFallback(res, cfg, m)
	pl.emit(Event{Kind: StageFinished, Stage: StageValidate})
	return res, nil
}

// Run executes all three stages in order.
func (pl *Pipeline) Run(ctx context.Context, tr *trace.Trace) (*Result, error) {
	p, err := pl.Profile(ctx, tr)
	if err != nil {
		return nil, err
	}
	return pl.RunProfiled(ctx, tr, p)
}

// RunProfiled executes the search and validation stages with a
// pre-built profile.
//
// On cancellation the returned *Result is non-nil whenever the search
// produced a usable best-so-far matrix: it is tagged Degraded, its
// Search field tells how many moves and evaluations completed, and it
// is returned alongside the wrapped ErrCanceled.
func (pl *Pipeline) RunProfiled(ctx context.Context, tr *trace.Trace, p *profile.Profile) (*Result, error) {
	sres, err := pl.Search(ctx, p)
	if err != nil {
		if sres.Degraded && sres.Matrix.Cols != nil {
			res := &Result{Search: sres, Profile: p, Degraded: true}
			if f, ferr := hash.NewXOR(sres.Matrix); ferr == nil {
				res.Func = f
			}
			return res, err
		}
		return nil, err
	}
	return pl.Validate(ctx, tr, p, sres)
}

// TuneCtx runs the full pipeline on a trace with cooperative
// cancellation and optional progress events: every stage checks ctx
// periodically (see DESIGN.md §9 for
// the granularity per layer) and returns a wrapped ErrCanceled when it
// is done. events may be nil.
func TuneCtx(ctx context.Context, tr *trace.Trace, cfg Config, events Sink) (*Result, error) {
	pl := Pipeline{Config: cfg, Events: events}
	return pl.Run(ctx, tr)
}

// TuneProfiledCtx runs search and validation with a pre-built profile,
// letting callers amortise profiling across several searches (e.g. the
// 2-in/4-in/16-in sweep of Table 2). events may be nil.
func TuneProfiledCtx(ctx context.Context, tr *trace.Trace, p *profile.Profile, cfg Config, events Sink) (*Result, error) {
	pl := Pipeline{Config: cfg, Events: events}
	return pl.RunProfiled(ctx, tr, p)
}

// BuildProfileCtx profiles a trace for the given configuration; the
// profile can then be shared across TuneProfiledCtx calls.
func BuildProfileCtx(ctx context.Context, tr *trace.Trace, cfg Config) (*profile.Profile, error) {
	pl := Pipeline{Config: cfg}
	return pl.Profile(ctx, tr)
}

func simulateCtx(ctx context.Context, tr *trace.Trace, cfg Config, f hash.Func) (cache.Stats, error) {
	c, err := cache.New(cacheConfig(cfg, f))
	if err != nil {
		return cache.Stats{}, err
	}
	c.DisableClassification()
	return c.RunCtx(ctx, tr)
}

// Check returns a wrapped ErrCanceled when ctx is done and nil
// otherwise — the cancellation probe the pipeline layers use, exported
// for callers that interleave their own work between stages.
func Check(ctx context.Context) error {
	return xerr.Check(ctx)
}
