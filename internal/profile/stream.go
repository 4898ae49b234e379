package profile

// BuildStream: the one configurable profiling pass. Option validation,
// checkpoint restore and the snapshot rules are here; the engine that
// runs the sequential loop over one or more slices of the trace and
// joins them is in parallel.go. Build is the six-line reference it is
// tested against.

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"os"

	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// defaultCheckpointEvery is the snapshot cadence when
// Options.checkpointEvery is zero: one snapshot per 2^20 profiled
// accesses.
const defaultCheckpointEvery = 1 << 20

// Options configures BuildStream. The zero value is an exact
// sequential pass on the default backend for the width.
type Options struct {
	// Workers is how many contiguous slices of the trace are profiled
	// at once, each by the sequential loop on its own builder; <= 1 is
	// one slice, run in the calling goroutine. Each builder holds a
	// private histogram and gate, so a flat build holds up to Workers ×
	// 16·2^n bytes. On a file source every slice decodes the trace up
	// to its start. Sampling forces one slice.
	Workers int

	// Sketch, when non-nil, selects the count-min-sketch histogram
	// backend (see sketch.go). Otherwise the width alone picks the
	// exact store: a flat table for n <= MaxFlatBits, a sparse map
	// beyond. Slice sketches merge entrywise, so a sketch build over
	// several slices keeps the (ε, δ) error bound but is not
	// bit-identical to a one-slice sketch build.
	Sketch *SketchOptions

	// Sample enables sampled conflict walks (see sample.go): every
	// access still runs the exact distance gate, but only every K-th
	// conflict candidate is walked into the histogram. Sampling depends
	// on the global candidate ordinal, which a cold slice cannot know,
	// so a sampled build always runs as one slice.
	Sample SampleOptions

	// Stats, when non-nil, receives the hot-path probe counters on
	// success: the sum of every slice's BuildStats plus the join's own
	// boundary walks, for which the sequential invariants
	// CandidateWalks == Candidates, WalkSteps == TotalPairs and
	// GatedCapacityMisses == Capacity hold exactly.
	Stats *BuildStats

	// CheckpointPath, when non-empty, is the snapshot file, written
	// atomically: every 2^20 accesses of slice 0 (the prefix it
	// extends), once more at the end, and once on cancellation. Every
	// snapshot is a sequential builder state, so any worker count
	// resumes any other's; a sampled snapshot carries its gate's
	// candidate ordinal. Incompatible with Sketch.
	CheckpointPath string

	// Resume restores CheckpointPath if it exists and skips the
	// accesses the snapshot already consumed before profiling the rest;
	// the result is bit-identical to an uninterrupted run, for any
	// worker count on either side of the restart. A snapshot of another
	// geometry or another sampling configuration is refused with a
	// wrapped xerr.ErrProfileMismatch.
	Resume bool

	// checkpointEvery is the snapshot cadence in accesses; 0 selects
	// defaultCheckpointEvery. Tests shrink it to snapshot often.
	checkpointEvery uint64
}

func (o Options) withDefaults() Options {
	if o.Sample.enabled() {
		o.Workers = 1
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

// BuildStream runs the Fig. 1 profiling pass over src without
// materialising it: each access address becomes the block
// address a.Addr / blockBytes, truncated to n bits as trace.Blocks
// does. The accesses still to profile, [snapshot position,
// Header().Len), are split into Workers contiguous slices; each runs
// the sequential loop over its own pass of src and the slices are
// joined in trace order (DESIGN.md §13). A source whose Len is 0 runs
// as one slice. Exact builds are bit-identical to Build of the same
// block sequence for every worker count.
//
// Errors carry wrapped xerr sentinels: ErrInvalidOptions for an
// out-of-domain block size, geometry or option set (checked before any
// goroutine starts), ErrProfileMismatch for a snapshot of another
// geometry or sampling, ErrFormat for a malformed trace or snapshot, a
// source that ends before its declared Len, and ErrPanic naming the
// slice for a panic inside one.
//
// Cancellation is checked once per trace chunk in every slice and
// returns a wrapped xerr.ErrCanceled with every goroutine joined,
// alongside the longest exact prefix: the slices joined in order up to
// and including the first partial one, marked Degraded with Accesses
// telling how far it reaches. With CheckpointPath set that prefix is
// snapshotted before returning. When a slice fails otherwise, that
// failure is returned with no profile, whatever else was canceled.
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
	ss := layout(bd, src.Header().Len, opt.Workers)
	return build(ctx, src, uint(bits.TrailingZeros(uint(blockBytes))), ss, opt)
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

// blockReader reads one trace pass from a given access on.
type blockReader struct {
	pass trace.Pass
	rest []trace.Access // unread tail of the last chunk
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

// skip discards the first n accesses: those a restored snapshot or an
// earlier slice profiles. It polls ctx once per chunk.
func (r *blockReader) skip(ctx context.Context, n uint64) error {
	for left := n; left > 0; {
		if err := xerr.Check(ctx); err != nil {
			return err
		}
		c, err := r.next()
		if err == io.EOF {
			return fmt.Errorf("profile: source ended %d accesses before access %d: %w",
				left, n, xerr.ErrFormat)
		}
		if err != nil {
			return err
		}
		k := min(left, uint64(len(c)))
		r.rest = c[k:]
		left -= k
	}
	return nil
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
