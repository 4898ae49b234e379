// Package core ties the pipeline of the paper together: profile a
// trace (Fig. 1), search for an application-specific XOR index
// function (§3.2), validate it by exact simulation, and fall back to
// conventional indexing when the heuristic would add misses (the §6
// mitigation). This is the package a downstream user starts from; the
// lower layers (gf2, profile, search, cache, ...) remain available for
// finer control.
package core

import (
	"fmt"
	"runtime"
	"strings"

	"xoridx/internal/cache"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/search"
	"xoridx/internal/xerr"
)

// Sentinel errors of the pipeline, re-exported from internal/xerr so
// downstream users can match them with errors.Is against any error the
// core API returns, without importing the internal leaf package.
var (
	// ErrCanceled marks errors caused by context cancellation; such
	// errors also wrap the context's own cause (context.Canceled or
	// context.DeadlineExceeded).
	ErrCanceled = xerr.ErrCanceled
	// ErrInvalidGeometry marks impossible cache geometries.
	ErrInvalidGeometry = xerr.ErrInvalidGeometry
	// ErrInvalidOptions marks search/profiling options out of domain.
	ErrInvalidOptions = xerr.ErrInvalidOptions
	// ErrProfileMismatch marks profiles incompatible with the config.
	ErrProfileMismatch = xerr.ErrProfileMismatch
	// ErrFormat marks unparsable serialized input (traces, matrices,
	// checkpoint snapshots).
	ErrFormat = xerr.ErrFormat
	// ErrIO marks transient I/O failures that a retry policy may
	// recover (see internal/faultio); permanent failures never wrap it.
	ErrIO = xerr.ErrIO
	// ErrPanic marks a recovered panic in a parallel worker, converted
	// to an error instead of crashing the process.
	ErrPanic = xerr.ErrPanic
)

// Config describes one tuning problem.
type Config struct {
	// CacheBytes is the cache capacity (direct mapped). Required.
	CacheBytes int
	// BlockBytes is the line size; the paper uses 4. Default 4.
	BlockBytes int
	// Ways is the associativity; the paper studies direct-mapped caches
	// (1, the default). Higher values tune the index function for a
	// set-associative geometry: fewer set bits, LRU within the set.
	Ways int
	// AddrBits is n, the number of hashed block-address bits; the paper
	// uses 16. Default 16.
	AddrBits int
	// Family selects the function family; default FamilyPermutation
	// (the paper's recommended reconfigurable family).
	Family hash.Family
	// MaxInputs bounds XOR fan-in (paper's 2-in/4-in); 0 = unlimited.
	MaxInputs int
	// Algorithm selects the search (default the paper's hill climber);
	// validation rejects one paired with a family it cannot search.
	Algorithm search.Algorithm
	// Restarts and Seed add randomised hill-climbing restarts beyond
	// the paper's single conventional start.
	Restarts int
	Seed     int64
	// NoFallback disables the revert-to-conventional guard of §6.
	NoFallback bool
	// Workers is how many contiguous slices of the trace the profiling
	// pass runs at once, each on its own goroutine and builder, joined
	// in order (profile.BuildStream, exact for any worker count); the
	// search phase is sequential. 0 or 1 = one slice; < 0 = one worker
	// per core.
	Workers int
	// CheckpointPath, when non-empty, is the base path for crash
	// snapshots of the profiling pass: it writes <path>.profile.ckpt
	// atomically, periodically and once more when the pass ends. A
	// killed run restarted with Resume restores the profile from it and
	// re-runs the search and validation, which are deterministic given
	// the profile, so the result is bit-identical to an uninterrupted
	// run.
	CheckpointPath string
	// Resume restores an existing <path>.profile.ckpt before profiling;
	// a missing file means a cold start.
	Resume bool
	// SampleK enables sampled profiling (DESIGN.md §17): every access
	// is still classified exactly against the full LRU state, but only
	// every SampleK-th conflict candidate is walked into the histogram,
	// so Eq. 4 estimates carry a confidence interval instead of being
	// exact. <= 1 profiles exactly. Sampling forces the profiling stage
	// sequential; a checkpoint records the sampling, and Resume refuses
	// a snapshot taken under another SampleK or SampleSeed.
	SampleK uint64
	// SampleSeed picks the deterministic sampling phase; runs with the
	// same seed are reproducible.
	SampleSeed uint64
	// Backend selects the histogram backend: "" or "auto" (exact; the
	// address width picks the store, a flat table up to
	// profile.MaxFlatBits address bits and a sparse map beyond) or
	// "sketch" (a sparse map capped at profile.SketchEntries entries:
	// memory bounded at any width). On the sketch every count is low by
	// at most the profile's Slack, so every estimate, the search's and
	// the baseline alike, is a lower bound of the exact one. Only the
	// auto backend composes with CheckpointPath.
	Backend string
}

func (c Config) withDefaults() Config {
	if c.BlockBytes == 0 {
		c.BlockBytes = 4
	}
	if c.AddrBits == 0 {
		c.AddrBits = 16
	}
	if c.Ways == 0 {
		c.Ways = 1
	}
	return c
}

func (c Config) validate() error {
	if c.CacheBytes <= 0 {
		return fmt.Errorf("core: CacheBytes must be positive: %w", xerr.ErrInvalidGeometry)
	}
	if c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("core: BlockBytes %d not a power of two: %w", c.BlockBytes, xerr.ErrInvalidGeometry)
	}
	blocks := c.CacheBytes / c.BlockBytes
	if blocks <= 1 || blocks&(blocks-1) != 0 {
		return fmt.Errorf("core: cache of %d blocks not a power of two > 1: %w", blocks, xerr.ErrInvalidGeometry)
	}
	if c.Ways < 1 || c.Ways&(c.Ways-1) != 0 || c.Ways > blocks {
		return fmt.Errorf("core: %d ways invalid for a %d-block cache: %w", c.Ways, blocks, xerr.ErrInvalidGeometry)
	}
	if blocks/c.Ways < 2 {
		return fmt.Errorf("core: fully-associative geometry has no index to tune: %w", xerr.ErrInvalidGeometry)
	}
	if c.AddrBits < c.SetBits()+1 || c.AddrBits > profile.MaxBits {
		return fmt.Errorf("core: AddrBits %d out of range (need > set bits %d, <= %d): %w",
			c.AddrBits, c.SetBits(), profile.MaxBits, xerr.ErrInvalidGeometry)
	}
	if err := c.searchOptions().CheckAlgorithm(); err != nil {
		return err
	}
	switch c.Backend {
	case "", "auto", "sketch":
	default:
		return fmt.Errorf("core: unknown histogram backend %q (want auto or sketch): %w",
			c.Backend, xerr.ErrInvalidOptions)
	}
	if c.CheckpointPath != "" && c.Backend == "sketch" {
		return fmt.Errorf("core: checkpointed profiling supports only the auto backend, not %q: %w",
			c.Backend, xerr.ErrInvalidOptions)
	}
	return nil
}

// Normalized applies the config defaults and validates the result —
// the exported form of the defaulting every pipeline stage performs
// internally, for layers (like internal/serve) that derive geometry
// from a Config before handing it back to the pipeline.
func (c Config) Normalized() (Config, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// SetBits returns m = log2(sets) for the configured geometry.
func (c Config) SetBits() int {
	ways := c.Ways
	if ways == 0 {
		ways = 1
	}
	sets := c.CacheBytes / c.BlockBytes / ways
	m := 0
	for v := 1; v < sets; v <<= 1 {
		m++
	}
	return m
}

// Result is the outcome of a pipeline run (Tune, TuneProfiled).
type Result struct {
	// Func is the selected index function (the optimized one, or the
	// conventional function if the fallback fired).
	Func *hash.XOR
	// Search reports the design-space search outcome.
	Search search.Result
	// Baseline and Optimized are exact simulation results for the
	// conventional and the searched function.
	Baseline  cache.Stats
	Optimized cache.Stats
	// UsedFallback is set when the searched function would have added
	// misses and the conventional function was kept (§6).
	UsedFallback bool
	// Profile is the conflict-vector histogram (reusable across
	// families and input bounds for the same trace and cache size).
	Profile *profile.Profile
	// Degraded is set on a best-so-far result returned alongside a
	// cancellation error: the search was interrupted (Search.Degraded
	// tells how many moves completed) or exact validation did not
	// finish (Baseline/Optimized are then zero). Func still holds a
	// valid index function — just not a validated local optimum.
	Degraded bool
}

// MissesRemoved returns the fraction of baseline misses eliminated by
// the selected function (negative if it added misses and fallback was
// disabled).
func (r *Result) MissesRemoved() float64 {
	if r.Baseline.Misses == 0 {
		return 0
	}
	return 1 - float64(r.Optimized.Misses)/float64(r.Baseline.Misses)
}

// checkProfile verifies that a pre-built profile matches the config.
func checkProfile(p *profile.Profile, cfg Config) error {
	if p.N != cfg.AddrBits {
		return fmt.Errorf("core: profile has n=%d, config wants %d: %w", p.N, cfg.AddrBits, xerr.ErrProfileMismatch)
	}
	if p.CacheBlocks != cfg.CacheBytes/cfg.BlockBytes {
		return fmt.Errorf("core: profile capacity filter %d blocks, config cache is %d blocks: %w",
			p.CacheBlocks, cfg.CacheBytes/cfg.BlockBytes, xerr.ErrProfileMismatch)
	}
	return nil
}

// searchOptions maps the config onto the search layer's options.
func (c Config) searchOptions() search.Options {
	return search.Options{
		Family:    c.Family,
		MaxInputs: c.MaxInputs,
		Restarts:  c.Restarts,
		Seed:      c.Seed,
		Algorithm: c.Algorithm,
	}
}

// applyFallback reverts to the conventional function when the searched
// one would add misses (paper §6), unless disabled.
func applyFallback(res *Result, cfg Config, m int) {
	if !cfg.NoFallback && res.Optimized.Misses > res.Baseline.Misses {
		// Paper §6: "one can revert to the conventional index function".
		res.Func = hash.Modulo(cfg.AddrBits, m)
		res.Optimized = res.Baseline
		res.UsedFallback = true
	}
}

// profileOptions maps the config onto the profile layer's options:
// engine, sampling, backend and checkpointing.
func (c Config) profileOptions() profile.Options {
	opt := profile.Options{
		Workers: c.profileWorkers(),
		Sketch:  c.Backend == "sketch",
		Sample:  profile.SampleOptions{K: c.SampleK, Seed: c.SampleSeed},
	}
	if c.CheckpointPath != "" {
		opt.CheckpointPath = c.CheckpointPath + ".profile.ckpt"
		opt.Resume = c.Resume
	}
	return opt
}

// profileWorkers resolves the Workers knob: < 0 means one per core.
func (c Config) profileWorkers() int {
	if c.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// DescribeFunction renders the selected function: family line, matrix,
// and its null-space basis — the artefacts a hardware engineer needs to
// program the Fig. 2 selector network. The result never carries a
// trailing newline, so it composes cleanly with fmt.Println.
func DescribeFunction(f *hash.XOR) string {
	h := f.Matrix()
	ns := h.NullSpace()
	// SizeBig, not Size: a 64-bit-wide degenerate function can have a
	// full-width null space, whose 2^64 count overflows the uint64 Size.
	s := fmt.Sprintf("%s\nmatrix (rows = address bits %d..0):\n%s\nnull space (%s vectors):\n%s",
		f, h.N-1, h, ns.SizeBig(), ns)
	return strings.TrimRight(s, "\n")
}
