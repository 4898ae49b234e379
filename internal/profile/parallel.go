package profile

// The profiling engine (DESIGN.md §13): the accesses still to profile
// are split into Workers contiguous slices, every slice runs the
// sequential Fig. 1 loop on its own builder, and the slices are joined
// in trace order.
//
// The LRU gate is global state, but almost none of it matters across a
// slice boundary. A slice after the first starts cold, and joining it
// to the prefix before it repairs the only classifications a cold
// builder can get wrong, its apparent first touches:
//
//   - Every non-first-touch access has its previous access inside the
//     slice, so the blocks above it in the slice's window are exactly
//     the blocks the sequential window holds above it. Intra-slice
//     classifications and histogram contributions are bit-identical to
//     the sequential pass.
//   - A slice's j-th first touch of block b that the prefix already
//     accessed is really a re-reference. Its sequential reuse distance
//     is |prefix_j ∪ above(b)|, where prefix_j is the slice's j
//     first-touched blocks before it (all accessed since b's previous
//     access) and above(b) the blocks above b in the prefix's gate.
//     With j > cacheBlocks, or b below the prefix's window, the
//     distance already exceeds the filter, so the miss flips
//     compulsory→capacity with no walk at all; otherwise the prefix
//     window above b, less the slice's first touches, either flips it
//     to capacity or supplies the conflict pairs b⊕y the cold slice
//     omitted.
//   - The prefix's gate then absorbs the slice's (lru.Stack.Absorb):
//     that is the sequential gate at the slice's end, because an LRU
//     stack depends only on the order of last accesses.
//
// The repair is O(cacheBlocks²) per boundary and the absorb O(1) per
// distinct block of the slice; histogram increments commute, so the
// joined profile is bit-identical to the sequential Build — histogram,
// every counter and the BuildStats probes — for every worker count.
// The warmup-replay scheme this replaced is kept in refparallel_test.go
// as a differential reference.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// testSliceHook, when non-nil, runs at the start of every slice with
// its index and first access. The cancellation, panic and layout tests
// use it; it is nil outside tests.
var testSliceHook func(idx int, from uint64)

// slice is one contiguous run [from, to) of the accesses a build
// profiles, and the builder that profiles it. The last slice has to =
// open and reads on to the end of the pass.
type slice struct {
	idx      int
	from, to uint64
	bd       *Builder
	err      error // nil when the slice ran to its end
}

// open marks the last slice's end: wherever the pass ends.
const open = math.MaxUint64

// layout splits the accesses [pos, length) still to profile into
// workers contiguous slices, never more than there are accesses, so a
// source that does not know its length (0) profiles as one slice.
// Slice 0 continues start; build gives the others cold builders.
func layout(start *Builder, length uint64, workers int) []*slice {
	pos := start.Pos()
	rest := uint64(0)
	if length > pos {
		rest = length - pos
	}
	w := min(uint64(max(workers, 1)), max(rest, 1))
	ss := make([]*slice, w)
	for i := range ss {
		hi, lo := bits.Mul64(uint64(i), rest)
		q, _ := bits.Div64(hi, lo, w)
		ss[i] = &slice{idx: i, from: pos + q}
		if i > 0 {
			ss[i-1].to = ss[i].from
		}
	}
	ss[0].bd = start
	ss[w-1].to = open
	return ss
}

// build runs every slice, slice 0 inline and the others on their own
// goroutines, and joins them. A slice that fails for any reason but
// cancellation cancels the others, and the first such failure in
// slice order is what the build returns. On cancellation the result is
// the longest exact prefix: the slices joined in order up to and
// including the first partial one, marked Degraded and snapshotted
// when checkpointing.
func build(ctx context.Context, src trace.Source, shift uint, ss []*slice, opt Options) (*Profile, error) {
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	run := func(s *slice) {
		if s.run(inner, src, shift, opt); s.err != nil && !errors.Is(s.err, xerr.ErrCanceled) {
			cancel()
		}
	}
	p := ss[0].bd.p
	var wg sync.WaitGroup
	for _, s := range ss[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each cold builder is made by the goroutine that fills it.
			// Builders made one after another by one goroutine sit next
			// to each other in memory, and two slices bumping counters
			// in one cache line ran at half speed.
			s.bd = newBuilder(p.N, p.CacheBlocks, opt.entryCap)
			run(s)
		}()
	}
	run(ss[0])
	wg.Wait()

	for _, s := range ss {
		if s.err != nil && !errors.Is(s.err, xerr.ErrCanceled) {
			return nil, s.err
		}
	}
	bd := ss[0].bd
	for _, s := range ss {
		if s.idx > 0 {
			if err := bd.absorb(s.bd); err != nil {
				return nil, err
			}
		}
		if s.err != nil {
			return opt.degraded(bd, s.err)
		}
	}
	// Final snapshot: a resume of a completed run replays nothing.
	if err := opt.snapshot(bd); err != nil {
		return nil, err
	}
	return bd.Finish(), nil
}

// run profiles the slice: it opens its own pass, skips to from, and
// adds accesses until to, polling ctx once per chunk. Slice 0 extends
// the exact prefix, so it alone snapshots every checkpointEvery
// accesses. A panic becomes a wrapped xerr.ErrPanic naming the slice.
func (s *slice) run(ctx context.Context, src trace.Source, shift uint, opt Options) {
	defer func() {
		if r := recover(); r != nil {
			s.err = xerr.Panicked(fmt.Sprintf("profile: slice %d", s.idx), r)
		}
	}()
	if testSliceHook != nil {
		testSliceHook(s.idx, s.from)
	}
	s.err = s.profile(ctx, src, shift, opt)
}

func (s *slice) profile(ctx context.Context, src trace.Source, shift uint, opt Options) error {
	pass, err := src.Pass(ctx)
	if err != nil {
		return err
	}
	defer pass.Close()
	rd := &blockReader{pass: pass}
	if err := rd.skip(ctx, s.from); err != nil {
		return err
	}
	bd, left, sinceCkpt := s.bd, s.to-s.from, uint64(0)
	for left > 0 {
		if err := xerr.Check(ctx); err != nil {
			return err
		}
		chunk, err := rd.next()
		if err == io.EOF && s.to == open {
			return nil
		}
		if err == io.EOF {
			return fmt.Errorf("profile: source ended %d accesses short of its declared length: %w", left, xerr.ErrFormat)
		}
		if err != nil {
			return err
		}
		chunk = chunk[:min(uint64(len(chunk)), left)]
		for _, a := range chunk {
			bd.Add(a.Addr >> shift)
		}
		left -= uint64(len(chunk))
		if sinceCkpt += uint64(len(chunk)); s.idx == 0 && sinceCkpt >= opt.checkpointEvery {
			if err := opt.snapshot(bd); err != nil {
				return err
			}
			sinceCkpt = 0
		}
	}
	return nil
}

// absorb joins the slice profiled by s, which starts cold at bd's
// position: reclassify the slice's boundary-crossing first touches
// against bd's gate, let that gate absorb the slice's, then merge the
// histogram. bd is then exactly the sequential builder at the slice's
// end. A merge failure (a slice built with a different geometry) is
// returned as Merge's wrapped xerr.ErrProfileMismatch.
func (bd *Builder) absorb(s *Builder) error {
	// Only first touches with at most cacheBlocks first touches before
	// them can be conflict candidates; each is resolved against bd's
	// gate before it absorbs the slice's.
	first := s.stack.FirstTouched()
	head := first[:min(len(first), bd.p.CacheBlocks+1)]
	inPrefix := make(map[uint64]struct{}, len(head))
	resolved := 0
	for j, b := range head {
		if bd.stack.Seen(b) {
			bd.resolve(s.p, head[:j], inPrefix, b)
			resolved++
		}
		inPrefix[b] = struct{}{}
	}
	// Every later first touch bd had seen sits more than cacheBlocks
	// blocks deep: a capacity miss, found by Absorb's count.
	deep := uint64(bd.stack.Absorb(s.stack) - resolved)
	s.p.Compulsory -= deep
	s.p.Capacity += deep
	if err := bd.p.Merge(s.p); err != nil {
		return fmt.Errorf("profile: slice merge: %w", err)
	}
	return nil
}

// resolve reclassifies one boundary-crossing candidate into p, the
// slice's profile: block b looked like the slice's j-th first touch (j
// = len(prefix) <= cacheBlocks) but bd accessed it. Its sequential
// reuse distance is the size of prefix ∪ {blocks above b in bd's gate};
// the prefix members (inPrefix) are distinct and all accessed since b, so
// only the gate blocks not among them add to it. A b below bd's window
// has more than cacheBlocks blocks above it.
func (bd *Builder) resolve(p *Profile, prefix []uint64, inPrefix map[uint64]struct{}, b uint64) {
	p.Compulsory--
	d := bd.stack.Find(b)
	var ys []uint64
	for _, y := range bd.stack.Window()[:max(d, 0)] {
		if _, ok := inPrefix[y]; !ok {
			ys = append(ys, y)
		}
	}
	if d < 0 || len(prefix)+len(ys) > bd.p.CacheBlocks {
		p.Capacity++
		return
	}
	p.Candidates++
	p.addPairs(b, prefix)
	p.addPairs(b, ys)
}
