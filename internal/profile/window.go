package profile

// Windowed profiling for unbounded access streams. A batch Profile
// answers "which conflict vectors did this trace generate"; a serving
// system needs "which conflict vectors is this workload generating
// *now*". Windowed keeps the Fig. 1 pass incremental over an infinite
// stream by splitting it into windows: the LRU stack and the distance
// gate persist across the whole stream (reuse distances do not care
// about window boundaries), while the histogram and its bookkeeping
// counters are per-window. Rotate folds the finished window into an
// exponentially decayed aggregate:
//
//	agg' = (1 − decay)·agg + window
//
// applied entry-wise to the histogram (integer floor per entry) and to
// the bookkeeping counters. decay = 0 makes the fold plain addition,
// so the aggregate after any number of rotations is bit-identical to
// one batch Build over the concatenated windows — the equivalence the
// differential tests in window_test.go pin, and the property that
// makes every batch-mode result a special case of the windowed path.
//
// With decay > 0 the aggregate is a geometric sum of window
// histograms, so stale phases fade at rate (1−decay) per window and
// the optimizer chases the live workload instead of the stream's
// whole history. Two bookkeeping caveats, both deliberate:
//
//   - TotalPairs is recomputed as the exact histogram sum during each
//     fold (a sum of per-entry floors is not the floor of the sum), so
//     the Eq. 4 machinery's sum == TotalPairs invariant always holds.
//   - Accesses/Compulsory/Capacity/Candidates are floored
//     individually, so Accesses == Compulsory + Capacity + Candidates
//     holds exactly only at decay = 0; decayed counters are rate
//     indicators, not exact tallies.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"xoridx/internal/ckpt"
	"xoridx/internal/gf2"
	"xoridx/internal/lru"
	"xoridx/internal/xerr"
)

// Windowed accumulates a decayed conflict-vector aggregate over an
// unbounded block-access stream. Not safe for concurrent use; the
// serve layer gives each shard its own instance.
type Windowed struct {
	bd        *Builder // current window; its stack/tree span the whole stream
	agg       *Profile // decayed fold of all rotated windows
	decay     float64
	rotations uint64
	total     uint64 // accesses ever ingested (undecayed, spans windows)
}

// ValidateDecay checks a window decay factor: the fold retains a
// (1−decay) fraction per rotation, so the domain is [0, 1).
func ValidateDecay(decay float64) error {
	if math.IsNaN(decay) || decay < 0 || decay >= 1 {
		return fmt.Errorf("profile: decay %v outside [0, 1): %w", decay, xerr.ErrInvalidOptions)
	}
	return nil
}

// NewWindowed starts an empty windowed profile. Backend selection
// matches NewBuilder (flat up to MaxFlatBits, sparse beyond). A sample
// with K > 1 turns on sampled conflict walks (see sample.go):
// classification and the stream-spanning LRU state stay exact, only
// every K-th conflict candidate is walked into the window histogram.
func NewWindowed(n, cacheBlocks int, decay float64, sample SampleOptions) (*Windowed, error) {
	return newWindowed(n, cacheBlocks, decay, n > MaxFlatBits, sample)
}

func newWindowed(n, cacheBlocks int, decay float64, sparse bool, sample SampleOptions) (*Windowed, error) {
	if err := ValidateGeometry(n, cacheBlocks); err != nil {
		return nil, err
	}
	if err := ValidateDecay(decay); err != nil {
		return nil, err
	}
	w := &Windowed{bd: newBuilder(n, cacheBlocks, sparse), decay: decay}
	w.bd.setSampling(sample)
	w.agg = emptyLike(w.bd.p)
	return w, nil
}

// emptyLike allocates a zero profile with o's geometry, backend and
// sampling configuration.
func emptyLike(o *Profile) *Profile {
	p := &Profile{N: o.N, CacheBlocks: o.CacheBlocks, SampleK: o.SampleK, SampleSeed: o.SampleSeed}
	if o.Sparse != nil {
		p.Sparse = make(map[uint64]uint64)
	} else {
		p.Table = make([]uint64, len(o.Table))
	}
	return p
}

// cloneProfile deep-copies a profile so the caller can hand it to a
// concurrent search while the original keeps accumulating.
func cloneProfile(o *Profile) *Profile {
	p := &Profile{
		N: o.N, CacheBlocks: o.CacheBlocks,
		Accesses: o.Accesses, Compulsory: o.Compulsory, Capacity: o.Capacity,
		Candidates: o.Candidates, TotalPairs: o.TotalPairs, Degraded: o.Degraded,
		SampleK: o.SampleK, SampleSeed: o.SampleSeed, SampledCandidates: o.SampledCandidates,
	}
	if o.Sparse != nil {
		p.Sparse = make(map[uint64]uint64, len(o.Sparse))
		for v, c := range o.Sparse {
			p.Sparse[v] = c
		}
	} else {
		p.Table = append([]uint64(nil), o.Table...)
	}
	return p
}

// Add records one block access into the current window. Classification
// (compulsory / capacity / conflict candidate) runs against the LRU
// state of the whole stream, exactly as a batch pass over the
// concatenated windows would classify it.
func (w *Windowed) Add(block uint64) {
	w.bd.Add(block)
	w.total++
}

// Rotate closes the current window and folds it into the aggregate:
// the aggregate decays by (1−decay), the window adds in undecayed, and
// a fresh window begins. The LRU stack and distance gate carry over
// untouched. Rotating an empty window still decays the aggregate —
// silence is information under exponential decay.
func (w *Windowed) Rotate() {
	win := w.bd.p
	if w.decay != 0 {
		decayInPlace(w.agg, 1-w.decay)
	}
	// Same geometry and backend by construction, so Merge cannot fail.
	if err := w.agg.Merge(win); err != nil {
		panic(err)
	}
	w.rotations++
	w.bd.p = emptyLike(win)
}

// decayInPlace scales every histogram entry and counter by lambda
// (integer floor), dropping sparse entries that decay to zero, and
// recomputes TotalPairs as the exact post-decay histogram sum.
func decayInPlace(p *Profile, lambda float64) {
	var sum uint64
	if p.Table != nil {
		for v, c := range p.Table {
			if c != 0 {
				nc := uint64(float64(c) * lambda)
				p.Table[v] = nc
				sum += nc
			}
		}
	} else {
		for v, c := range p.Sparse {
			nc := uint64(float64(c) * lambda)
			if nc == 0 {
				delete(p.Sparse, v)
			} else {
				p.Sparse[v] = nc
			}
			sum += nc
		}
	}
	p.TotalPairs = sum
	p.Accesses = uint64(float64(p.Accesses) * lambda)
	p.Compulsory = uint64(float64(p.Compulsory) * lambda)
	p.Capacity = uint64(float64(p.Capacity) * lambda)
	p.Candidates = uint64(float64(p.Candidates) * lambda)
	p.SampledCandidates = uint64(float64(p.SampledCandidates) * lambda)
}

// Aggregate returns an independent copy of the decayed aggregate —
// the rotated windows only, not the live one. Safe to hand to a
// concurrent search while ingest continues.
func (w *Windowed) Aggregate() *Profile { return cloneProfile(w.agg) }

// Snapshot returns an independent copy of the aggregate with the live
// window folded in undecayed (the window has not rotated yet, so no
// decay step applies to it). At decay = 0 this equals a batch Build
// over every access ingested so far, regardless of rotation count.
func (w *Windowed) Snapshot() *Profile {
	out := cloneProfile(w.agg)
	if err := out.Merge(w.bd.p); err != nil {
		panic(err)
	}
	return out
}

// N returns the hashed-address width.
func (w *Windowed) N() int { return w.bd.p.N }

// CacheBlocks returns the capacity filter in blocks.
func (w *Windowed) CacheBlocks() int { return w.bd.p.CacheBlocks }

// Decay returns the per-rotation decay factor.
func (w *Windowed) Decay() float64 { return w.decay }

// Sampling returns the sampled-profiling configuration (K <= 1 means
// exact).
func (w *Windowed) Sampling() SampleOptions {
	return SampleOptions{K: w.bd.p.SampleK, Seed: w.bd.p.SampleSeed}
}

// Rotations returns how many windows have been folded so far.
func (w *Windowed) Rotations() uint64 { return w.rotations }

// WindowAccesses returns the live window's access count.
func (w *Windowed) WindowAccesses() uint64 { return w.bd.p.Accesses }

// Total returns the undecayed count of accesses ever ingested.
func (w *Windowed) Total() uint64 { return w.total }

const (
	windowMagic   = "XWP1"
	windowVersion = 2 // v2 appends the sampling gate state; v1 (exact-only) still restores
)

// Checkpoint serialises the complete windowed state — decayed
// aggregate, live window, and the stream-spanning LRU stack — inside
// the versioned, CRC-checked ckpt envelope. Unlike Builder.Checkpoint
// this snapshot has no stack == Compulsory invariant: the stack spans
// every window while the counters are window-local, so the codec
// carries both histogram/counter sets explicitly.
func (w *Windowed) Checkpoint(out io.Writer) error {
	win := w.bd.p
	return ckpt.Write(out, windowMagic, windowVersion, func(b *bytes.Buffer) error {
		var buf [binary.MaxVarintLen64]byte
		put := func(v uint64) { b.Write(buf[:binary.PutUvarint(buf[:], v)]) }
		put(uint64(win.N))
		put(uint64(win.CacheBlocks))
		if win.Sparse != nil {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		put(math.Float64bits(w.decay))
		put(w.rotations)
		put(w.total)
		// v2 sampling gate state: the factor, the phase seed, and the
		// stream-global candidate ordinal the gate has counted to (the
		// next trigger is recomputed from these on restore).
		put(w.bd.sampleK)
		put(w.bd.p.SampleSeed)
		put(w.bd.sampleCount)
		putProfileBody(put, w.agg)
		putProfileBody(put, win)
		stack := w.bd.stack.Blocks()
		put(uint64(len(stack)))
		for _, blk := range stack {
			put(blk)
		}
		return nil
	})
}

// putProfileBody writes one histogram/counter set: the counters
// followed by the delta-coded ascending support.
func putProfileBody(put func(uint64), p *Profile) {
	put(p.Accesses)
	put(p.Compulsory)
	put(p.Capacity)
	put(p.Candidates)
	put(p.TotalPairs)
	put(p.SampledCandidates)
	support := p.Support()
	put(uint64(len(support)))
	prev := uint64(0)
	for _, vc := range support {
		put(uint64(vc.Vec) - prev)
		put(vc.Count)
		prev = uint64(vc.Vec)
	}
}

// RestoreWindowed rebuilds a Windowed from a Checkpoint snapshot.
// Corruption at any layer returns a wrapped xerr.ErrFormat; a
// successful restore continues the stream bit-identically to the
// instance that was checkpointed.
func RestoreWindowed(r io.Reader) (*Windowed, error) {
	version, payload, err := ckpt.Read(r, windowMagic)
	if err != nil {
		return nil, err
	}
	if version < 1 || version > windowVersion {
		return nil, fmt.Errorf("profile: windowed snapshot version %d, this build reads up to %d: %w",
			version, windowVersion, xerr.ErrFormat)
	}
	sampled := version >= 2 // v1 snapshots predate sampling and are exact
	d := &payloadReader{b: payload}
	n := int(d.uvarint("n"))
	cacheBlocks := int(d.uvarint("cacheBlocks"))
	sparse := d.byte("backend") == 1
	decay := math.Float64frombits(d.uvarint("decay"))
	if d.err == nil {
		if err := ValidateGeometry(n, cacheBlocks); err != nil {
			return nil, fmt.Errorf("profile: windowed snapshot geometry: %w: %w", xerr.ErrFormat, err)
		}
		if !sparse && n > MaxFlatBits {
			return nil, fmt.Errorf("profile: windowed snapshot claims a flat table at n=%d > MaxFlatBits: %w", n, xerr.ErrFormat)
		}
		if err := ValidateDecay(decay); err != nil {
			return nil, fmt.Errorf("profile: windowed snapshot decay: %w: %w", xerr.ErrFormat, err)
		}
	}
	rotations := d.uvarint("rotations")
	total := d.uvarint("total")
	var sampleK, sampleSeed, sampleCount uint64
	if sampled {
		sampleK = d.uvarint("sampleK")
		sampleSeed = d.uvarint("sampleSeed")
		sampleCount = d.uvarint("sampleCount")
	}
	if d.err != nil {
		return nil, d.err
	}
	w, err := newWindowed(n, cacheBlocks, decay, sparse, SampleOptions{K: sampleK, Seed: sampleSeed})
	if err != nil {
		return nil, err
	}
	w.rotations = rotations
	w.total = total
	if sampleK > 1 {
		// The gate resumes mid-stream: restore its candidate ordinal and
		// recompute the next trigger — the smallest ordinal past it that
		// is congruent to the seed-derived phase mod K.
		w.bd.sampleCount = sampleCount
		phase := splitmix64(sampleSeed)%sampleK + 1
		next := phase
		if sampleCount >= phase {
			next = phase + ((sampleCount-phase)/sampleK+1)*sampleK
		}
		w.bd.sampleNext = next
	}
	mask := uint64(gf2.Mask(n))
	if err := readProfileBody(d, w.agg, mask, sampled, "aggregate"); err != nil {
		return nil, err
	}
	if err := readProfileBody(d, w.bd.p, mask, sampled, "window"); err != nil {
		return nil, err
	}
	win := w.bd.p
	if win.Compulsory+win.Capacity+win.Candidates != win.Accesses {
		return nil, fmt.Errorf("profile: windowed snapshot window counters disagree (%d+%d+%d != %d accesses): %w",
			win.Compulsory, win.Capacity, win.Candidates, win.Accesses, xerr.ErrFormat)
	}
	if win.SampledCandidates > win.Candidates {
		return nil, fmt.Errorf("profile: windowed snapshot window sampled %d of %d candidates: %w",
			win.SampledCandidates, win.Candidates, xerr.ErrFormat)
	}
	if win.Accesses > total {
		return nil, fmt.Errorf("profile: windowed snapshot window accesses %d exceed stream total %d: %w",
			win.Accesses, total, xerr.ErrFormat)
	}
	stackLen := d.uvarint("stack length")
	if d.err != nil {
		return nil, d.err
	}
	if stackLen > total || uint64(len(payload)) < stackLen {
		return nil, fmt.Errorf("profile: windowed snapshot stack length %d implausible: %w", stackLen, xerr.ErrFormat)
	}
	stack := make([]uint64, stackLen)
	for i := range stack {
		stack[i] = d.uvarint("stack block")
		if d.err == nil && stack[i] > mask {
			return nil, fmt.Errorf("profile: windowed snapshot stack block %#x exceeds %d bits: %w", stack[i], n, xerr.ErrFormat)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.rem() != 0 {
		return nil, fmt.Errorf("profile: %d trailing bytes after windowed snapshot payload: %w", d.rem(), xerr.ErrFormat)
	}
	st, err := lru.NewStackFrom(stack)
	if err != nil {
		return nil, fmt.Errorf("profile: windowed snapshot stack: %w: %w", xerr.ErrFormat, err)
	}
	w.bd.stack = st
	// Rebuild the distance gate in recency order (bottom of the stack
	// first); reuse distances depend only on relative recency, so the
	// resumed stream classifies bit-identically (same argument as
	// Restore).
	w.bd.tree = lru.NewDistanceTree()
	for i := len(stack) - 1; i >= 0; i-- {
		w.bd.tree.Record(stack[i])
	}
	return w, nil
}

// readProfileBody decodes one histogram/counter set written by
// putProfileBody into p (allocated empty with the right backend) and
// checks the histogram-sum invariant.
func readProfileBody(d *payloadReader, p *Profile, mask uint64, sampled bool, what string) error {
	p.Accesses = d.uvarint("accesses")
	p.Compulsory = d.uvarint("compulsory")
	p.Capacity = d.uvarint("capacity")
	p.Candidates = d.uvarint("candidates")
	p.TotalPairs = d.uvarint("totalPairs")
	if sampled {
		p.SampledCandidates = d.uvarint("sampledCandidates")
	}
	supportLen := d.uvarint("support length")
	if d.err != nil {
		return d.err
	}
	if uint64(len(d.b)) < supportLen {
		return fmt.Errorf("profile: windowed snapshot %s support length %d implausible: %w", what, supportLen, xerr.ErrFormat)
	}
	var vec, sum uint64
	for i := uint64(0); i < supportLen; i++ {
		dv := d.uvarint("vector delta")
		count := d.uvarint("vector count")
		if d.err != nil {
			return d.err
		}
		if i > 0 && dv == 0 {
			return fmt.Errorf("profile: windowed snapshot %s vectors not strictly ascending: %w", what, xerr.ErrFormat)
		}
		vec += dv
		if vec > mask {
			return fmt.Errorf("profile: windowed snapshot %s vector %#x exceeds mask: %w", what, vec, xerr.ErrFormat)
		}
		if count == 0 {
			return fmt.Errorf("profile: windowed snapshot %s carries a zero count: %w", what, xerr.ErrFormat)
		}
		if p.Table != nil {
			p.Table[vec] = count
		} else {
			p.Sparse[vec] = count
		}
		sum += count
	}
	if sum != p.TotalPairs {
		return fmt.Errorf("profile: windowed snapshot %s histogram sums to %d pairs, counter says %d: %w",
			what, sum, p.TotalPairs, xerr.ErrFormat)
	}
	return nil
}
