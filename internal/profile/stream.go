package profile

// BuildStream: the one configurable profiling pass. Two engines sit
// behind it — a sequential loop (Workers <= 1, and every sampled build)
// and the sharded gate-summary pipeline of parallel.go (Workers > 1) —
// sharing option validation, checkpoint restore, prefix skip, retry
// and the snapshot-on-cancellation path. Build is the six-line
// reference both are tested against.

import (
	"context"
	"fmt"
	"io"
	"os"

	"xoridx/internal/faultio"
	"xoridx/internal/xerr"
)

// ctxCheckEvery is the cancellation-check granularity of the profiling
// hot loops, in block accesses, and the sequential engine's read size:
// one source read and one ctx poll per 8 K accesses keeps the overhead
// unmeasurable (a single channel poll amortised over thousands of
// LRU-stack operations) while still bounding the cancellation latency
// to well under a millisecond of work.
const ctxCheckEvery = 8192

// DefaultChunkSize is the sharded engine's shard length when
// Options.ChunkSize is zero.
const DefaultChunkSize = 1 << 16

// DefaultCheckpointEvery is the snapshot cadence when
// Options.CheckpointEvery is zero: one snapshot per 2^20 profiled
// accesses.
const DefaultCheckpointEvery = 1 << 20

// Options configures BuildStream. The zero value is an exact
// sequential pass on the default backend for the width.
type Options struct {
	// Workers selects the engine: <= 1 runs the sequential pass, > 1
	// the sharded pipeline with that many concurrent shard builders.
	// Each shard builder holds a private histogram, so memory is
	// Workers × 8·2^n bytes (flat backend) while a build is in flight.
	// Sampling forces the sequential engine.
	Workers int

	// ChunkSize is the sharded engine's shard length in accesses; 0
	// selects DefaultChunkSize. The dispatcher fills every chunk to
	// exactly this length (short source reads are topped up), so shard
	// boundaries — and therefore gate-summary exchange points — land at
	// fixed multiples of ChunkSize regardless of the source's read
	// granularity. Only the final chunk may be short.
	ChunkSize int

	// ForceSparse selects the sparse histogram backend at any width —
	// for tests and for memory-constrained callers whose histogram
	// support is known to be small.
	ForceSparse bool

	// Sketch, when non-nil, selects the count-min-sketch histogram
	// backend (see sketch.go) instead of flat/sparse. Shard sketches
	// merge entrywise, so sharded sketch builds keep the (ε, δ) error
	// bound but are not bit-identical to a sequential sketch build.
	// Overrides ForceSparse.
	Sketch *SketchOptions

	// Sample enables sampled conflict walks (see sample.go): every
	// access still runs the exact distance gate, but only every K-th
	// conflict candidate is walked into the histogram. Sampling depends
	// on the global candidate ordinal, which an isolated cold shard
	// cannot know, so a sampled build always runs sequentially.
	Sample SampleOptions

	// Retry, when MaxRetries > 0, retries transient source failures
	// (errors wrapping xerr.ErrIO) in place under the policy instead
	// of failing the build (see RetrySource). The zero value disables
	// retrying.
	Retry faultio.Policy

	// Stats, when non-nil, receives the hot-path probe counters on
	// success. For a sharded build they are the sum of every shard's
	// BuildStats plus the reconciler's own boundary walks; the
	// sequential invariants CandidateWalks == Candidates, WalkSteps ==
	// TotalPairs and GatedCapacityMisses == Capacity hold exactly for
	// them too.
	Stats *BuildStats

	// CheckpointPath, when non-empty, is the snapshot file: every
	// CheckpointEvery accesses (0 selects DefaultCheckpointEvery) the
	// pass writes its state there atomically, once more at the end, and
	// once on cancellation. Both engines write the sequential snapshot
	// format, so either resumes the other's snapshot. Incompatible with
	// Sample and Sketch.
	CheckpointPath  string
	CheckpointEvery uint64

	// Resume restores CheckpointPath if it exists and skips the
	// accesses the snapshot already consumed before profiling the rest;
	// the result is bit-identical to an uninterrupted run, for any
	// worker count and chunk size on either side of the restart.
	Resume bool
}

func (o Options) withDefaults() Options {
	if o.Sample.enabled() {
		o.Workers = 1
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return o
}

// validate rejects out-of-domain options before any work starts.
func (o Options) validate() error {
	if err := o.Retry.Validate(); err != nil {
		return err
	}
	if o.CheckpointPath != "" && (o.Sample.enabled() || o.Sketch != nil) {
		// The snapshot codec is exact flat/sparse state; a resumed
		// sampled pass would also lose its global candidate ordinal.
		return fmt.Errorf("profile: sampled or sketch builds cannot be checkpointed: %w",
			xerr.ErrInvalidOptions)
	}
	if o.Sketch != nil {
		return o.Sketch.Validate()
	}
	return nil
}

// sparse reports which exact histogram backend the options select at
// width n.
func (o Options) sparse(n int) bool {
	return o.ForceSparse || n > MaxFlatBits
}

// newBuilder constructs a cold builder with the histogram backend the
// options select. Sampling is armed separately (see start) — shard
// builders never sample.
func (o Options) newBuilder(n, cacheBlocks int) *Builder {
	if o.Sketch != nil {
		return newSketchBuilder(n, cacheBlocks, o.Sketch.withDefaults())
	}
	return newBuilder(n, cacheBlocks, o.sparse(n))
}

// BlockSource yields successive chunks of block addresses already
// truncated to n bits, filling dst and returning how many it wrote.
// It follows io.Reader conventions: (k, nil) with k > 0 while data
// remains, then (0, io.EOF); (k > 0, io.EOF) is also accepted. Short
// reads are fine. trace.Reader.BlockSource adapts the streaming
// decoder to this shape; Blocks adapts an in-memory slice.
type BlockSource func(dst []uint64) (int, error)

// Blocks adapts an in-memory block sequence to a BlockSource.
func Blocks(blocks []uint64) BlockSource {
	return func(dst []uint64) (int, error) {
		if len(blocks) == 0 {
			return 0, io.EOF
		}
		k := copy(dst, blocks)
		blocks = blocks[k:]
		return k, nil
	}
}

// errStuckSource reports a source that returned no data and no error.
var errStuckSource = fmt.Errorf("profile: block source returned no data and no error: %w", xerr.ErrFormat)

// BuildStream runs the Fig. 1 profiling pass over a block stream
// without materialising it. With Workers <= 1 (or sampling) one
// sequential builder consumes the source; with Workers > 1 the sharded
// pipeline fans ChunkSize-block chunks out to that many shard builders
// and reconciles them in order (DESIGN.md §13). Exact builds are
// bit-identical to Build of the same sequence on either engine, for
// every worker count and chunk size.
//
// Errors carry wrapped xerr sentinels: ErrInvalidOptions for an
// out-of-domain geometry or option set (checked before any goroutine
// starts), ErrProfileMismatch for a snapshot of another geometry or
// backend, ErrFormat for a malformed source or snapshot, and
// ErrPanic naming the shard for a panic inside a shard builder.
//
// Cancellation is checked every ctxCheckEvery accesses per builder and
// returns a wrapped xerr.ErrCanceled with every goroutine joined. The
// sequential engine returns its partial profile alongside the error,
// marked Degraded with Accesses telling how far it got; the sharded
// engine does so only when checkpointing, and then covers the
// reconciled chunk prefix. With CheckpointPath set either engine
// snapshots that partial state before returning. When a shard failure
// and a cancellation both occur, the shard's root cause wins.
func BuildStream(ctx context.Context, src BlockSource, n, cacheBlocks int, opt Options) (*Profile, error) {
	if err := ValidateGeometry(n, cacheBlocks); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	bd, err := opt.start(n, cacheBlocks)
	if err != nil {
		return nil, err
	}
	if opt.Workers > 1 {
		return buildSharded(ctx, src, bd, opt)
	}
	return buildSequential(ctx, src, bd, opt)
}

// start returns the builder state a pass continues from: the snapshot
// at CheckpointPath when resuming from one, a cold builder otherwise
// (including when the file does not exist yet). A snapshot of another
// geometry or backend is rejected.
func (o Options) start(n, cacheBlocks int) (*Builder, error) {
	if o.Resume && o.CheckpointPath != "" {
		bd, err := RestoreFile(o.CheckpointPath)
		switch {
		case err == nil:
			p := bd.p
			if p.N != n || p.CacheBlocks != cacheBlocks {
				return nil, fmt.Errorf("profile: snapshot geometry (n=%d, %d blocks) does not match build (n=%d, %d blocks): %w",
					p.N, p.CacheBlocks, n, cacheBlocks, xerr.ErrProfileMismatch)
			}
			if (p.Sparse != nil) != o.sparse(n) {
				return nil, fmt.Errorf("profile: snapshot histogram backend does not match build options: %w", xerr.ErrProfileMismatch)
			}
			return bd, nil
		case !os.IsNotExist(err):
			return nil, err
		}
	}
	bd := o.newBuilder(n, cacheBlocks)
	bd.setSampling(o.Sample)
	return bd, nil
}

// source wraps src with the retry policy and discards the skip blocks
// a restored snapshot already profiled.
func (o Options) source(ctx context.Context, src BlockSource, skip uint64) (BlockSource, error) {
	if o.Retry.MaxRetries > 0 {
		src = RetrySource(ctx, src, o.Retry)
	}
	if skip == 0 {
		return src, nil
	}
	buf := make([]uint64, min(skip, ctxCheckEvery))
	for skip > 0 {
		k, err := src(buf[:min(skip, uint64(len(buf)))])
		skip -= uint64(k)
		switch {
		case err == io.EOF && skip > 0:
			return nil, fmt.Errorf("profile: source ended %d accesses before the snapshot position: %w",
				skip, xerr.ErrFormat)
		case err != nil && err != io.EOF:
			return nil, err
		case k == 0 && err == nil:
			return nil, errStuckSource
		}
	}
	return src, nil
}

// snapshot writes bd's state to CheckpointPath when checkpointing.
func (o Options) snapshot(bd *Builder) error {
	if o.CheckpointPath == "" {
		return nil
	}
	return CheckpointFile(o.CheckpointPath, bd)
}

// degraded snapshots bd's partial state and returns it marked Degraded
// alongside the cancellation cause.
func (o Options) degraded(bd *Builder, cause error) (*Profile, error) {
	if err := o.snapshot(bd); err != nil {
		return nil, fmt.Errorf("profile: snapshotting on cancellation: %w (after %w)", err, cause)
	}
	p := bd.Finish()
	p.Degraded = true
	return p, cause
}

// buildSequential is the Workers <= 1 engine: one builder consumes the
// source ctxCheckEvery blocks per read, polling ctx once per read and
// snapshotting every CheckpointEvery accesses.
func buildSequential(ctx context.Context, src BlockSource, bd *Builder, opt Options) (*Profile, error) {
	src, err := opt.source(ctx, src, bd.Pos())
	if err != nil {
		return nil, err
	}
	buf := make([]uint64, ctxCheckEvery)
	sinceCkpt := uint64(0)
	for {
		if err := xerr.Check(ctx); err != nil {
			return opt.degraded(bd, err)
		}
		k, err := src(buf)
		for _, blk := range buf[:k] {
			bd.Add(blk)
		}
		if sinceCkpt += uint64(k); sinceCkpt >= opt.CheckpointEvery {
			if err := opt.snapshot(bd); err != nil {
				return nil, err
			}
			sinceCkpt = 0
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if k == 0 {
			return nil, errStuckSource
		}
	}
	// Final snapshot: a resume of a completed run replays nothing.
	if err := opt.snapshot(bd); err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		*opt.Stats = bd.stats
	}
	return bd.Finish(), nil
}

// RetrySource wraps a BlockSource so transient failures (errors
// wrapping xerr.ErrIO) are retried in place under the policy. Blocks
// delivered alongside a transient error are passed through first —
// nothing is re-read, because the trace reader consumes no bytes on a
// failed record decode — and the fault is retried on the next call.
func RetrySource(ctx context.Context, src BlockSource, policy faultio.Policy) BlockSource {
	return func(dst []uint64) (int, error) {
		var n int
		err := policy.Do(ctx, func() error {
			k, err := src(dst)
			if k > 0 {
				n = k
				if faultio.IsTransient(err) {
					// Deliver the partial chunk; the fault will
					// resurface on the next call if it persists.
					return nil
				}
			}
			return err
		})
		return n, err
	}
}
