package profile

// Parallel sharded profiling via gate-summary exchange (DESIGN.md §13).
//
// The Fig. 1 pass is sequential on its face — the LRU stack is global
// state — but almost none of that state matters across a shard
// boundary. Each shard runs the plain arena-stack Builder from cold,
// with zero per-access overhead over the sequential pass, and exports
// two things the sequential pass would have needed from it:
//
//   - its distinct blocks in first-touch order (the arena slab order),
//   - its distinct blocks in final recency order (its exit LRU stack).
//
// That pair is a lru.GateSummary. A single in-order reconciliation
// pass over the summaries repairs the only classifications a cold
// shard can get wrong — its apparent first touches:
//
//   - Every non-first-touch access has its previous access inside the
//     shard, so the blocks above it on the shard stack are exactly the
//     blocks the sequential stack holds above it. Intra-shard
//     classifications and histogram contributions are bit-identical to
//     the sequential pass.
//   - A shard's j-th first touch of block b that an earlier shard
//     already accessed is really a re-reference. Its sequential reuse
//     distance is |prefix_j ∪ above(b)|, where prefix_j is the shard's
//     j first-touched blocks before it (all accessed since b's previous
//     access) and above(b) the blocks above b on the reconciler's
//     boundary stack — the sequential LRU stack at the shard's start.
//     With j > cacheBlocks the distance already exceeds the filter, so
//     the miss flips compulsory→capacity with no walk at all; otherwise
//     a bounded boundary-stack walk (skipping prefix_j members, early
//     exiting once the union exceeds the filter) either flips it to
//     capacity or counts the conflict pairs b⊕y the cold shard omitted.
//   - Replaying the shard's recency order bottom-up over the boundary
//     stack then yields the sequential LRU stack at the shard's end,
//     because an LRU stack depends only on the order of last accesses.
//
// At most cacheBlocks+1 first touches per shard can reach the walk, and
// each walk visits at most ~2·cacheBlocks entries, so reconciliation is
// O(cacheBlocks²) per boundary — independent of shard length. Histogram
// increments commute, so the merged profile is bit-identical to the
// sequential Build — histogram, every counter, and the BuildStats
// probes — for every worker count and chunk size. This replaces the
// PR 1 warmup-replay scheme (retained verbatim in refparallel_test.go
// as a differential reference), which paid a per-access map write in
// every shard and re-profiled an overlap window per boundary.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"xoridx/internal/lru"
	"xoridx/internal/xerr"
)

// testShardHook, when non-nil, runs at the start of every shard pass
// with the shard index. The cancellation and panic-surfacing tests use
// it to inject failures into a chosen shard; it is nil outside tests.
var testShardHook func(idx int)

// shardState is the fixed-size per-shard slot of a sharded build: the
// input half (idx, blocks) is filled by the dispatcher, the output half
// (p, sum, stats, err) by the one worker goroutine that runs the shard.
// Nothing in it is shared until the shard is handed back for
// reconciliation.
type shardState struct {
	idx    int
	blocks []uint64

	p     *Profile
	sum   lru.GateSummary
	stats BuildStats
	err   error
}

// run profiles the shard from a cold builder, checking ctx every
// ctxCheckEvery accesses, and exports the gate summary the reconciler
// needs. A panic anywhere in the pass is converted into a wrapped
// xerr.ErrPanic naming the shard instead of crashing the process, so
// the fan-out drains normally and the caller sees an ordinary error it
// can match with errors.Is.
func (s *shardState) run(ctx context.Context, n, cacheBlocks int, opt Options) {
	defer func() {
		if r := recover(); r != nil {
			s.p = nil
			s.err = xerr.Panicked(fmt.Sprintf("profile: shard %d", s.idx), r)
		}
	}()
	if testShardHook != nil {
		testShardHook(s.idx)
	}
	bd := newBuilder(n, cacheBlocks, opt.Sketch)
	tick := 0
	for _, b := range s.blocks {
		if tick++; tick >= ctxCheckEvery {
			tick = 0
			if err := xerr.Check(ctx); err != nil {
				s.err = err
				return
			}
		}
		bd.Add(b)
	}
	s.sum = bd.GateSummary()
	s.stats = bd.Stats()
	s.p = bd.Finish()
}

// buildSharded is the Workers > 1 engine: a chunk dispatcher, a
// worker pool of cold shard builders, and an in-order collector that
// reconciles gate summaries as shards complete (and snapshots the
// reconciled prefix when checkpointing). Reconciliation is incremental,
// so at most ~Workers shard histograms are alive at once. start is the
// state the pass continues from — cold, or a restored snapshot whose
// (profile, stack) pair seeds the reconciler. A failed shard (panic,
// injected fault) cancels the rest of the fan-out internally, and its
// error — not the secondary cancellation — is what the call returns.
func buildSharded(ctx context.Context, src BlockSource, start *Builder, opt Options) (*Profile, error) {
	n, cacheBlocks := start.p.N, start.p.CacheBlocks
	rc := newReconciler(start)
	// inner cancels the fan-out when a shard fails, so the dispatcher
	// and sibling shards stop instead of profiling a stream whose
	// result is already lost. The root-cause error is kept separately —
	// the secondary cancellations never mask it.
	inner, cancelInner := context.WithCancel(ctx)
	defer cancelInner()
	src, err := opt.source(src, start.Pos())
	if err != nil {
		return nil, err
	}

	jobs := make(chan *shardState, opt.Workers)
	done := make(chan *shardState, opt.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				s.run(inner, n, cacheBlocks, opt)
				done <- s
			}
		}()
	}
	// Collector: reconcile results in shard order as they arrive,
	// buffering the out-of-order ones, so completed histograms are
	// released instead of accumulating until the end of the stream.
	// Errored shards still advance the in-order cursor — otherwise a
	// canceled shard would stall every later result in the pending map.
	// rootErr collects the first non-cancellation failure (and triggers
	// the internal cancel); cancelErr the first cancellation.
	collected := make(chan struct{})
	var rootErr, cancelErr error
	go func() {
		defer close(collected)
		pending := make(map[int]*shardState)
		next := 0
		sinceCkpt := uint64(0)
		fail := func(err error) {
			if errors.Is(err, xerr.ErrCanceled) {
				if cancelErr == nil {
					cancelErr = err
				}
				return
			}
			if rootErr == nil {
				rootErr = err
				cancelInner()
			}
		}
		for s := range done {
			pending[s.idx] = s
			for {
				ns, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if ns.err != nil {
					fail(ns.err)
					continue
				}
				if rootErr != nil || cancelErr != nil {
					continue
				}
				added := ns.p.Accesses
				if err := rc.absorb(ns); err != nil {
					fail(err)
					continue
				}
				if opt.CheckpointPath != "" {
					if sinceCkpt += added; sinceCkpt >= opt.CheckpointEvery {
						if err := opt.snapshot(rc.builder()); err != nil {
							fail(err)
							continue
						}
						sinceCkpt = 0
					}
				}
			}
		}
	}()

	idx := 0
	var srcErr error
	for {
		if err := xerr.Check(inner); err != nil {
			srcErr = err
			break
		}
		buf := make([]uint64, opt.chunkSize)
		filled, ferr := fillChunk(src, buf)
		if filled > 0 && ferr == nil || ferr == io.EOF {
			if filled > 0 {
				jobs <- &shardState{idx: idx, blocks: buf[:filled]}
				idx++
			}
		}
		if ferr == io.EOF {
			break
		}
		if ferr != nil {
			srcErr = ferr
			break
		}
	}
	close(jobs)
	wg.Wait()
	close(done)
	<-collected

	switch {
	case rootErr != nil:
		return nil, rootErr
	case srcErr != nil && !errors.Is(srcErr, xerr.ErrCanceled):
		return nil, srcErr
	case srcErr != nil || cancelErr != nil:
		cause := srcErr
		if cause == nil {
			cause = cancelErr
		}
		if opt.CheckpointPath != "" {
			return opt.degraded(rc.builder(), cause)
		}
		return nil, cause
	}
	// Final snapshot: a resume of a completed run replays nothing.
	if err := opt.snapshot(rc.builder()); err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		*opt.Stats = rc.stats
	}
	return rc.out, nil
}

// fillChunk tops buf up from the source until it is full or the stream
// ends, so chunk — and therefore shard — boundaries land at fixed
// multiples of the chunk size regardless of the source's read
// granularity. It returns how many blocks were filled plus io.EOF at
// the end of the stream, any source error as-is, and a wrapped
// xerr.ErrFormat for a source that returns no data and no error.
func fillChunk(src BlockSource, buf []uint64) (int, error) {
	filled := 0
	for filled < len(buf) {
		k, err := src(buf[filled:])
		filled += k
		if err != nil {
			return filled, err
		}
		if k == 0 {
			return filled, errStuckSource
		}
	}
	return filled, nil
}

// reconciler folds shard results into the merged profile in trace
// order. bound is the sequential LRU stack at the boundary between the
// shards already absorbed and the next one — the only cross-shard state
// the scheme needs. Its (out, bound) pair is at every shard boundary
// exactly the (profile, stack) state of a sequential Builder at that
// access position, which is what makes sharded builds checkpointable
// with the sequential snapshot codec (see rc.builder).
type reconciler struct {
	out   *Profile
	bound *lru.Stack
	stats BuildStats

	prefix  map[uint64]struct{} // scratch: current shard's first-touch prefix
	scratch []uint64            // scratch: boundary blocks collected by a walk
}

// newReconciler continues from start's (profile, stack) state: cold,
// or a restored snapshot of the prefix already profiled.
func newReconciler(start *Builder) *reconciler {
	return &reconciler{
		out:    start.p,
		bound:  start.stack,
		prefix: make(map[uint64]struct{}),
	}
}

// builder views the reconciled prefix as a sequential Builder for the
// snapshot codec: (out, bound) at a shard boundary carries the same
// counters, stack and histogram a sequential Builder would hold at that
// access position, down to the stackLen == Compulsory invariant Restore
// re-validates.
func (rc *reconciler) builder() *Builder {
	return &Builder{p: rc.out, stack: rc.bound}
}

// absorb folds the next shard (in trace order) into the merged profile:
// reclassify the shard's boundary-crossing first touches against the
// boundary stack, merge the histogram, then advance the boundary stack
// by the shard's recency order. A merge failure (a shard built with a
// different geometry — impossible through the exported builders,
// reachable if the reconciler is ever reused across configurations) is
// returned as Merge's wrapped xerr.ErrProfileMismatch rather than
// panicking in library code.
func (rc *reconciler) absorb(s *shardState) error {
	rc.stats.CandidateWalks += s.stats.CandidateWalks
	rc.stats.WalkSteps += s.stats.WalkSteps
	rc.stats.GatedCapacityMisses += s.stats.GatedCapacityMisses
	cacheBlocks := rc.out.CacheBlocks
	clear(rc.prefix)
	for j, b := range s.sum.FirstTouch {
		if target, ok := rc.bound.Index(b); ok {
			rc.resolve(s.p, s.sum.FirstTouch[:j], b, target)
		}
		if j <= cacheBlocks {
			// Only candidates with at most cacheBlocks prior first
			// touches can walk, so the prefix set stops growing once no
			// later candidate could need it.
			rc.prefix[b] = struct{}{}
		}
	}
	if err := rc.out.Merge(s.p); err != nil {
		return fmt.Errorf("profile: shard merge: %w", err)
	}
	for i := len(s.sum.Recency) - 1; i >= 0; i-- {
		rc.bound.Record(s.sum.Recency[i])
	}
	return nil
}

// resolve reclassifies one boundary-crossing candidate: block b looked
// like the shard's j-th first touch (j = len(prefix)) but an earlier
// shard accessed it. Its sequential reuse distance is the size of
// prefix ∪ {boundary-stack blocks above b}; the prefix members are
// distinct from each other and all accessed since b, so the walk only
// has to add the boundary blocks not already in the prefix. The walk
// visits at most 2·cacheBlocks+1 entries: it early-exits to a capacity
// miss once the union exceeds the filter, having skipped at most
// cacheBlocks+1 prefix members before that.
func (rc *reconciler) resolve(p *Profile, prefix []uint64, b uint64, target int32) {
	p.Compulsory--
	cacheBlocks := rc.out.CacheBlocks
	j := len(prefix)
	if j > cacheBlocks {
		p.Capacity++
		rc.stats.GatedCapacityMisses++
		return
	}
	nodes, top := rc.bound.Raw()
	ys := rc.scratch[:0]
	for i := top; i != target; i = nodes[i].Next {
		y := nodes[i].Block
		if _, ok := rc.prefix[y]; ok {
			continue
		}
		if j+len(ys)+1 > cacheBlocks {
			rc.scratch = ys
			p.Capacity++
			rc.stats.GatedCapacityMisses++
			return
		}
		ys = append(ys, y)
	}
	rc.scratch = ys
	p.Candidates++
	p.addPairs(b, prefix)
	p.addPairs(b, ys)
	rc.stats.CandidateWalks++
	rc.stats.WalkSteps += uint64(j + len(ys))
}
