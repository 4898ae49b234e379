package profile

// Windowed profiling for unbounded access streams. A batch Profile
// answers "which conflict vectors did this trace generate"; a serving
// system needs "which conflict vectors is this workload generating
// *now*". Windowed keeps the Fig. 1 pass incremental over an infinite
// stream by splitting it into windows: the LRU gate persists across
// the whole stream (reuse distances do not care
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
	"fmt"
	"io"
	"math"

	"xoridx/internal/ckpt"
	"xoridx/internal/xerr"
)

// Windowed accumulates a decayed conflict-vector aggregate over an
// unbounded block-access stream. Not safe for concurrent use; the
// serve layer gives each shard its own instance.
type Windowed struct {
	bd        *Builder // current window; its LRU gate spans the whole stream
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
	if err := ValidateGeometry(n, cacheBlocks); err != nil {
		return nil, err
	}
	if err := ValidateDecay(decay); err != nil {
		return nil, err
	}
	w := &Windowed{bd: newBuilder(n, cacheBlocks, nil), decay: decay}
	w.bd.setSampling(sample)
	w.agg = emptyLike(w.bd.p)
	return w, nil
}

// emptyLike allocates a zero profile with o's geometry, backend and
// sampling configuration.
func emptyLike(o *Profile) *Profile {
	p := &Profile{N: o.N, CacheBlocks: o.CacheBlocks, SampleK: o.SampleK, SampleSeed: o.SampleSeed}
	p.fill(nil)
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
// a fresh window begins. The LRU gate carries over untouched. Rotating
// an empty window still decays the aggregate — silence is information
// under exponential decay.
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
func (w *Windowed) Sampling() SampleOptions { return w.bd.sampling() }

// Rotations returns how many windows have been folded so far.
func (w *Windowed) Rotations() uint64 { return w.rotations }

// WindowAccesses returns the live window's access count.
func (w *Windowed) WindowAccesses() uint64 { return w.bd.p.Accesses }

// Total returns the undecayed count of accesses ever ingested.
func (w *Windowed) Total() uint64 { return w.total }

const (
	windowMagic   = "XWP1"
	windowVersion = 3
)

// Checkpoint serialises the complete windowed state inside the
// versioned, CRC-checked ckpt envelope: the live window's Builder in
// the codec XPC1 uses — its LRU gate spans the whole stream — then the
// decay, the rotation count, the stream total and the decayed
// aggregate's counters and histogram.
func (w *Windowed) Checkpoint(out io.Writer) error {
	return ckpt.Write(out, windowMagic, windowVersion, func(b *bytes.Buffer) error {
		e := encoder{b}
		w.bd.encode(e)
		e.put(math.Float64bits(w.decay), w.rotations, w.total)
		putBody(e, w.agg)
		return nil
	})
}

// RestoreWindowed rebuilds a Windowed from a Checkpoint snapshot.
// Corruption at any layer returns a wrapped xerr.ErrFormat; a
// successful restore continues the stream bit-identically to the
// instance that was checkpointed. On top of readBuilder's checks on the
// window, the decay must lie in [0, 1) and neither the window's
// accesses nor the gate, which spans windows, may exceed the stream
// total. The aggregate's counters are decayed rates, so only its
// histogram is checked.
func RestoreWindowed(r io.Reader) (*Windowed, error) {
	d, err := openSnapshot(r, windowMagic, windowVersion, "windowed snapshot")
	if err != nil {
		return nil, err
	}
	bd, err := readBuilder(d, "windowed snapshot")
	if err != nil {
		return nil, err
	}
	w := &Windowed{bd: bd, agg: &Profile{N: bd.p.N, CacheBlocks: bd.p.CacheBlocks, SampleK: bd.p.SampleK, SampleSeed: bd.p.SampleSeed}}
	w.decay = math.Float64frombits(d.Uvarint("decay"))
	w.rotations = d.Uvarint("rotations")
	w.total = d.Uvarint("total")
	if d.Err() != nil {
		return nil, d.Err()
	}
	if err := ValidateDecay(w.decay); err != nil {
		return nil, fmt.Errorf("profile: windowed snapshot decay: %w: %w", xerr.ErrFormat, err)
	}
	if win, gate := bd.p.Accesses, uint64(bd.stack.Len()); win > w.total || gate > w.total {
		return nil, fmt.Errorf("profile: windowed snapshot window accesses %d or stack of %d blocks exceed stream total %d: %w",
			win, gate, w.total, xerr.ErrFormat)
	}
	support, err := readBody(d, w.agg, "windowed snapshot aggregate histogram")
	if err != nil {
		return nil, err
	}
	w.agg.fill(support)
	if d.Rem() != 0 {
		return nil, fmt.Errorf("profile: %d trailing bytes after windowed snapshot payload: %w", d.Rem(), xerr.ErrFormat)
	}
	return w, nil
}
