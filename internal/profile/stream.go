package profile

// BuildStream: the one configurable profiling pass. Two engines sit
// behind it — a sequential loop (Workers <= 1, and every sampled build)
// and the sharded gate-absorbing pipeline of parallel.go (Workers > 1) —
// sharing option validation, checkpoint restore, prefix skip and the
// snapshot-on-cancellation path. Both read one pass of a trace.Source
// and turn its accesses into block addresses themselves. Build is the
// six-line reference both are tested against.

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"os"

	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// ctxCheckEvery is the cancellation-check granularity of a shard
// builder, in block accesses; the sequential engine polls once per
// trace chunk (trace.ChunkLen, the same 8 K). One poll per 8 K accesses
// keeps the overhead unmeasurable (a single channel poll amortised over
// thousands of LRU-stack operations) while still bounding the
// cancellation latency to well under a millisecond of work.
const ctxCheckEvery = 8192

// defaultChunkSize is the sharded engine's shard length in accesses.
const defaultChunkSize = 1 << 16

// defaultCheckpointEvery is the snapshot cadence when
// Options.checkpointEvery is zero: one snapshot per 2^20 profiled
// accesses.
const defaultCheckpointEvery = 1 << 20

// Options configures BuildStream. The zero value is an exact
// sequential pass on the default backend for the width.
type Options struct {
	// Workers selects the engine: <= 1 runs the sequential pass, > 1
	// the sharded pipeline with that many concurrent shard builders.
	// Each shard builder holds a private histogram, so memory is
	// Workers × 8·2^n bytes (flat backend) while a build is in flight.
	// Sampling forces the sequential engine.
	Workers int

	// Sketch, when non-nil, selects the count-min-sketch histogram
	// backend (see sketch.go). Otherwise the width alone picks the
	// exact store: a flat table for n <= MaxFlatBits, a sparse map
	// beyond. Shard sketches merge entrywise, so sharded sketch builds
	// keep the (ε, δ) error bound but are not bit-identical to a
	// sequential sketch build.
	Sketch *SketchOptions

	// Sample enables sampled conflict walks (see sample.go): every
	// access still runs the exact distance gate, but only every K-th
	// conflict candidate is walked into the histogram. Sampling depends
	// on the global candidate ordinal, which an isolated cold shard
	// cannot know, so a sampled build always runs sequentially.
	Sample SampleOptions

	// Stats, when non-nil, receives the hot-path probe counters on
	// success. For a sharded build they are the sum of every shard's
	// BuildStats plus the reconciler's own boundary walks; the
	// sequential invariants CandidateWalks == Candidates, WalkSteps ==
	// TotalPairs and GatedCapacityMisses == Capacity hold exactly for
	// them too.
	Stats *BuildStats

	// CheckpointPath, when non-empty, is the snapshot file: every 2^20
	// accesses the pass writes its state there atomically, once more at
	// the end, and once on cancellation. Both engines write the
	// sequential snapshot format, so either resumes the other's
	// snapshot; a sampled snapshot carries its gate's candidate ordinal.
	// Incompatible with Sketch.
	CheckpointPath string

	// Resume restores CheckpointPath if it exists and skips the
	// accesses the snapshot already consumed before profiling the rest;
	// the result is bit-identical to an uninterrupted run, for any
	// worker count and chunk size on either side of the restart. A
	// snapshot of another geometry or another sampling configuration is
	// refused with a wrapped xerr.ErrProfileMismatch.
	Resume bool

	// chunkSize is the sharded engine's shard length in accesses; 0
	// selects defaultChunkSize. The dispatcher fills every chunk to
	// exactly this length from however many trace chunks it takes, so
	// shard boundaries — and therefore the points where the reconciler
	// absorbs a shard's gate — land at fixed multiples of it regardless
	// of the pass's chunk sizes. Only the final chunk may be short.
	// Tests shrink it to force many shard boundaries over short traces.
	chunkSize int

	// checkpointEvery is the snapshot cadence in accesses; 0 selects
	// defaultCheckpointEvery. Tests shrink it to snapshot often.
	checkpointEvery uint64
}

func (o Options) withDefaults() Options {
	if o.Sample.enabled() {
		o.Workers = 1
	}
	if o.chunkSize <= 0 {
		o.chunkSize = defaultChunkSize
	}
	if o.checkpointEvery == 0 {
		o.checkpointEvery = defaultCheckpointEvery
	}
	return o
}

// validate rejects out-of-domain options before any work starts.
func (o Options) validate() error {
	if o.Sketch == nil {
		return nil
	}
	if o.CheckpointPath != "" {
		// The snapshot codec is exact flat/sparse state.
		return fmt.Errorf("profile: sketch builds cannot be checkpointed: %w", xerr.ErrInvalidOptions)
	}
	return o.Sketch.Validate()
}

// BuildStream runs the Fig. 1 profiling pass over one pass of src
// without materialising it: each access address becomes the block
// address a.Addr / blockBytes, truncated to n bits as trace.Blocks
// does. With Workers <= 1 (or sampling) one sequential builder consumes
// the pass chunk by chunk; with Workers > 1 the sharded pipeline fans
// fixed-length chunks out to that many shard builders and reconciles
// them in order (DESIGN.md §13). Exact builds are bit-identical to
// Build of the same block sequence on either engine, for every worker
// count and chunk size.
//
// Errors carry wrapped xerr sentinels: ErrInvalidOptions for an
// out-of-domain block size, geometry or option set (checked before any
// goroutine starts), ErrProfileMismatch for a snapshot of another
// geometry or sampling, ErrFormat for a malformed trace or snapshot,
// and ErrPanic naming the shard for a panic inside a shard builder.
//
// Cancellation is checked once per trace chunk by the sequential
// engine and every ctxCheckEvery accesses per shard builder, and
// returns a wrapped xerr.ErrCanceled with every goroutine joined. The
// sequential engine returns its partial profile alongside the error,
// marked Degraded with Accesses telling how far it got; the sharded
// engine does so only when checkpointing, and then covers the
// reconciled chunk prefix. With CheckpointPath set either engine
// snapshots that partial state before returning. When a shard failure
// and a cancellation both occur, the shard's root cause wins.
func BuildStream(ctx context.Context, src trace.Source, blockBytes, n, cacheBlocks int, opt Options) (*Profile, error) {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("profile: block size %d not a positive power of two: %w", blockBytes, xerr.ErrInvalidOptions)
	}
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
	pass, err := src.Pass(ctx)
	if err != nil {
		return nil, err
	}
	defer pass.Close()
	rd := &blockReader{pass: pass, shift: uint(bits.TrailingZeros(uint(blockBytes)))}
	if err := rd.skip(bd.Pos()); err != nil {
		return nil, err
	}
	if opt.Workers > 1 {
		return buildSharded(ctx, rd, bd, opt)
	}
	return buildSequential(ctx, rd, bd, opt)
}

// start returns the builder state a pass continues from: the snapshot
// at CheckpointPath when resuming from one, a cold builder otherwise
// (including when the file does not exist yet). A snapshot of another
// geometry or sampling configuration is rejected; Restore already holds
// its backend to the one its width selects.
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
			if got := bd.sampling(); !got.Same(o.Sample) {
				return nil, fmt.Errorf("profile: snapshot sampling (k=%d, seed %d) does not match build (k=%d, seed %d): %w",
					got.K, got.Seed, o.Sample.K, o.Sample.Seed, xerr.ErrProfileMismatch)
			}
			return bd, nil
		case !os.IsNotExist(err):
			return nil, err
		}
	}
	bd := newBuilder(n, cacheBlocks, o.Sketch)
	bd.setSampling(o.Sample)
	return bd, nil
}

// blockReader reads one trace pass as block addresses: each access
// address shifted right by log2 of the block size. Builders truncate
// the blocks to n bits themselves.
type blockReader struct {
	pass  trace.Pass
	shift uint
	rest  []trace.Access // unread tail of the last chunk
}

// next returns the unread tail of the last chunk if there is one, the
// pass's next chunk otherwise.
func (r *blockReader) next() ([]trace.Access, error) {
	if c := r.rest; len(c) > 0 {
		r.rest = nil
		return c, nil
	}
	return r.pass.Chunk()
}

// skip discards the first n accesses, which a restored snapshot already
// profiled.
func (r *blockReader) skip(n uint64) error {
	for n > 0 {
		c, err := r.next()
		if err == io.EOF {
			return fmt.Errorf("profile: source ended %d accesses before the snapshot position: %w",
				n, xerr.ErrFormat)
		}
		if err != nil {
			return err
		}
		k := min(n, uint64(len(c)))
		r.rest = c[k:]
		n -= k
	}
	return nil
}

// fill tops dst up with blocks until it is full or the pass ends, and
// returns how many it wrote: io.EOF at the end of the pass, any pass
// error as-is.
func (r *blockReader) fill(dst []uint64) (int, error) {
	k := 0
	for k < len(dst) {
		c, err := r.next()
		if err != nil {
			return k, err
		}
		m := min(len(dst)-k, len(c))
		for i, a := range c[:m] {
			dst[k+i] = a.Addr >> r.shift
		}
		r.rest = c[m:]
		k += m
	}
	return k, nil
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

// buildSequential is the Workers <= 1 engine: one builder adds every
// access of the pass straight from its chunk, polling ctx once per
// chunk and snapshotting every checkpointEvery accesses.
func buildSequential(ctx context.Context, rd *blockReader, bd *Builder, opt Options) (*Profile, error) {
	shift := rd.shift
	sinceCkpt := uint64(0)
	for {
		if err := xerr.Check(ctx); err != nil {
			return opt.degraded(bd, err)
		}
		chunk, err := rd.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, a := range chunk {
			bd.Add(a.Addr >> shift)
		}
		if sinceCkpt += uint64(len(chunk)); sinceCkpt >= opt.checkpointEvery {
			if err := opt.snapshot(bd); err != nil {
				return nil, err
			}
			sinceCkpt = 0
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
