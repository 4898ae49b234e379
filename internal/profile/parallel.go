package profile

// Parallel sharded profiling by gate absorption (DESIGN.md §13).
//
// The Fig. 1 pass is sequential on its face — the LRU gate is global
// state — but almost none of that state matters across a shard
// boundary. Each shard runs the plain Builder from cold, with zero
// per-access overhead over the sequential pass. A single in-order
// reconciliation pass then reads the shard's gate — its distinct
// blocks in first-touch order, its stamps and its window — and repairs
// the only classifications a cold shard can get wrong, its apparent
// first touches:
//
//   - Every non-first-touch access has its previous access inside the
//     shard, so the blocks above it in the shard's window are exactly
//     the blocks the sequential window holds above it. Intra-shard
//     classifications and histogram contributions are bit-identical to
//     the sequential pass.
//   - A shard's j-th first touch of block b that an earlier shard
//     already accessed is really a re-reference. Its sequential reuse
//     distance is |prefix_j ∪ above(b)|, where prefix_j is the shard's
//     j first-touched blocks before it (all accessed since b's previous
//     access) and above(b) the blocks above b in the boundary gate —
//     the sequential gate at the shard's start. With j > cacheBlocks,
//     or b below the boundary window, the distance already exceeds the
//     filter, so the miss flips compulsory→capacity with no walk at
//     all; otherwise the boundary window above b, less the prefix
//     members, either flips it to capacity or supplies the conflict
//     pairs b⊕y the cold shard omitted.
//   - The boundary gate then absorbs the shard's: the shard's stamps
//     move past the boundary clock, so every block the shard touched
//     is more recent than every block it did not, and the shard's
//     window, topped up from the boundary window when the shard saw
//     fewer than cacheBlocks+1 blocks, becomes the boundary window.
//     That is the sequential gate at the shard's end, because an LRU
//     stack depends only on the order of last accesses.
//
// At most cacheBlocks+1 first touches per shard can reach the walk, and
// each reads at most cacheBlocks+1 window entries, so the repair is
// O(cacheBlocks²) per boundary and the absorb O(1) per distinct shard
// block — independent of shard length. Histogram increments commute,
// so the merged profile is bit-identical to the sequential Build —
// histogram, every counter, and the BuildStats probes — for every
// worker count and chunk size. An absorbed shard's builder, histogram
// and stamps included, is emptied and handed to the next shard, so a
// pass allocates only as many builders as it has in flight. This
// replaces an earlier warmup-replay scheme (kept in refparallel_test.go
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
// (bd, p, err) by the one worker goroutine that runs the shard. Nothing
// in it is shared until the shard is handed back for reconciliation,
// and once absorbed the whole slot — chunk buffer and builder — is
// recycled for a later shard.
type shardState struct {
	idx    int
	blocks []uint64
	bd     *Builder // the previous shard's builder when recycled, else nil

	p   *Profile
	err error
}

// run profiles the shard on a cold builder — a new one, or the recycled
// one emptied — checking ctx every ctxCheckEvery accesses. A panic
// anywhere in the pass is converted into a wrapped xerr.ErrPanic naming
// the shard instead of crashing the process, so the fan-out drains
// normally and the caller sees an ordinary error it can match with
// errors.Is.
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
	if s.bd == nil {
		s.bd = newBuilder(n, cacheBlocks, opt.Sketch)
	} else {
		s.bd.reset()
	}
	tick := 0
	for _, b := range s.blocks {
		if tick++; tick >= ctxCheckEvery {
			tick = 0
			if err := xerr.Check(ctx); err != nil {
				s.err = err
				return
			}
		}
		s.bd.Add(b)
	}
	s.p = s.bd.p
}

// reset empties an absorbed shard's builder for the next shard, keeping
// its flat table or sparse map and its stamps: clearing costs one pass
// over the table and one write per block the shard saw.
func (bd *Builder) reset() {
	p := bd.p
	clear(p.Table)
	clear(p.Sparse)
	fresh := &Profile{N: p.N, CacheBlocks: p.CacheBlocks, Table: p.Table, Sparse: p.Sparse}
	if sk := p.Sketch; sk != nil {
		fresh.Sketch = NewSketch(SketchOptions{Width: sk.Width, Depth: sk.Depth, TopK: sk.topK, Seed: sk.Seed})
	}
	bd.p = fresh
	bd.stack.Reset()
	bd.stats = BuildStats{}
}

// buildSharded is the Workers > 1 engine: a chunk dispatcher, a
// worker pool of cold shard builders, and an in-order collector that
// absorbs shards as they complete (and snapshots the reconciled prefix
// when checkpointing). Reconciliation is incremental, and absorbed
// shard slots return to a free list the dispatcher draws from, so a
// pass allocates chunk buffers, histograms and stamps only for the
// shards it has in flight at once. start is the state the pass
// continues from — cold, or a restored snapshot whose (profile, gate)
// pair seeds the reconciler. A failed shard (panic,
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
	// free holds absorbed slots for reuse. It has room for about as
	// many slots as can be in flight (queued, running, done, and the
	// collector's and dispatcher's own), so a recycled slot is rarely
	// dropped and reallocated.
	free := make(chan *shardState, 4*opt.Workers)
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
				select {
				case free <- ns:
				default:
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
		var s *shardState
		select {
		case s = <-free:
		default:
			s = &shardState{blocks: make([]uint64, opt.chunkSize)}
		}
		filled, ferr := fillChunk(src, s.blocks[:cap(s.blocks)])
		if filled > 0 && ferr == nil || ferr == io.EOF {
			if filled > 0 {
				s.idx, s.blocks = idx, s.blocks[:filled]
				jobs <- s
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
// order. bound is the sequential LRU gate at the boundary between the
// shards already absorbed and the next one — the only cross-shard state
// the scheme needs. Its (out, bound) pair is at every shard boundary
// exactly the (profile, gate) state of a sequential Builder at that
// access position, which is what makes sharded builds checkpointable
// with the sequential snapshot codec (see rc.builder).
type reconciler struct {
	out   *Profile
	bound *lru.Stack
	stats BuildStats

	prefix  map[uint64]struct{} // scratch: current shard's first-touch prefix
	scratch []uint64            // scratch: boundary blocks collected by a walk
}

// newReconciler continues from start's (profile, gate) state: cold, or
// a restored snapshot of the prefix already profiled.
func newReconciler(start *Builder) *reconciler {
	return &reconciler{
		out:    start.p,
		bound:  start.stack,
		prefix: make(map[uint64]struct{}),
	}
}

// builder views the reconciled prefix as a sequential Builder for the
// snapshot codec: (out, bound) at a shard boundary carries the same
// counters, gate and histogram a sequential Builder would hold at that
// access position, down to the stackLen == Compulsory invariant Restore
// re-validates.
func (rc *reconciler) builder() *Builder {
	return &Builder{p: rc.out, stack: rc.bound}
}

// absorb folds the next shard (in trace order) into the merged profile:
// reclassify the shard's boundary-crossing first touches against the
// boundary gate, let the boundary gate absorb the shard's, then merge
// the histogram. A merge failure (a shard built with a different
// geometry — impossible through the exported builders, reachable if the
// reconciler is ever reused across configurations) is returned as
// Merge's wrapped xerr.ErrProfileMismatch rather than panicking in
// library code.
func (rc *reconciler) absorb(s *shardState) error {
	st := s.bd.stats
	rc.stats.CandidateWalks += st.CandidateWalks
	rc.stats.WalkSteps += st.WalkSteps
	rc.stats.GatedCapacityMisses += st.GatedCapacityMisses
	// Only first touches with at most cacheBlocks first touches before
	// them can be conflict candidates; each is resolved against the
	// boundary gate before it absorbs the shard's.
	first := s.bd.stack.FirstTouched()
	head := first[:min(len(first), rc.out.CacheBlocks+1)]
	clear(rc.prefix)
	resolved := 0
	for j, b := range head {
		if rc.bound.Seen(b) {
			rc.resolve(s.p, head[:j], b)
			resolved++
		}
		rc.prefix[b] = struct{}{}
	}
	// Every later first touch the boundary had seen sits more than
	// cacheBlocks blocks deep: a capacity miss, found by Absorb's count.
	deep := uint64(rc.bound.Absorb(s.bd.stack) - resolved)
	s.p.Compulsory -= deep
	s.p.Capacity += deep
	rc.stats.GatedCapacityMisses += deep
	if err := rc.out.Merge(s.p); err != nil {
		return fmt.Errorf("profile: shard merge: %w", err)
	}
	return nil
}

// resolve reclassifies one boundary-crossing candidate: block b looked
// like the shard's j-th first touch (j = len(prefix) <= cacheBlocks)
// but an earlier shard accessed it. Its sequential reuse distance is
// the size of prefix ∪ {boundary blocks above b}; the prefix members
// are distinct from each other and all accessed since b, so only the
// boundary blocks not already in the prefix add to it. A b below the
// boundary window has more than cacheBlocks boundary blocks above it.
func (rc *reconciler) resolve(p *Profile, prefix []uint64, b uint64) {
	p.Compulsory--
	above, in := rc.bound.Above(b)
	ys := rc.scratch[:0]
	for _, y := range above {
		if _, ok := rc.prefix[y]; !ok {
			ys = append(ys, y)
		}
	}
	rc.scratch = ys
	if !in || len(prefix)+len(ys) > rc.out.CacheBlocks {
		p.Capacity++
		rc.stats.GatedCapacityMisses++
		return
	}
	p.Candidates++
	rc.stats.CandidateWalks++
	rc.stats.WalkSteps += p.addPairs(b, prefix) + p.addPairs(b, ys)
}
