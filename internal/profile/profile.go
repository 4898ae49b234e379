// Package profile implements the profiling phase of the paper's
// construction algorithm (Fig. 1) and the null-space miss estimator
// (Eq. 4).
//
// One pass over the block-address trace maintains an LRU gate. For
// every access to a block x that is neither a compulsory miss (first
// touch) nor a capacity miss (reuse distance larger than the cache
// capacity in blocks), each block y accessed since the previous access
// to x contributes one count to the conflict vector v = x⊕y. Any hash
// function H then incurs an estimated
//
//	misses(H) = Σ_{v ∈ N(H)} misses(v)              (Eq. 4)
//
// conflict misses, because x and y land in the same set exactly when
// x⊕y lies in the null space N(H) (Eq. 2). For n up to MaxFlatBits the
// histogram is stored as a flat 2^n table, so a null space of dimension
// d is scored with a 2^d-step Gray-code walk. Wider addresses switch to
// a sparse map backend automatically: a trace of length L touches at
// most L·cacheBlocks distinct conflict vectors regardless of n, so the
// histogram support stays bounded while 2^n does not. The search climbs
// read the support (Support), not single null spaces. A caller that
// cannot afford even the support opts into the sketch backend: the
// sparse map capped at SketchEntries entries (sketch.go).
package profile

import (
	"fmt"
	"math/bits"
	"sort"

	"xoridx/internal/gf2"
	"xoridx/internal/lru"
	"xoridx/internal/xerr"
)

// MaxFlatBits is the widest hashed-address width stored as a flat
// table (128 MB of counters). NewBuilder selects the sparse map
// backend beyond it.
const MaxFlatBits = 24

// MaxBits is the widest supported hashed-address width (block
// addresses are uint64).
const MaxBits = 64

// Profile is the conflict-vector histogram gathered from one trace.
//
// Exactly one store is populated: Table for n <= MaxFlatBits, Sparse
// beyond that or when a caller opts into the sketch backend, whose
// Sparse map is capped (see sketch.go). Code that indexes Table
// directly only works on flat profiles; use At, ForEachNonZero or
// Support to stay backend-agnostic.
type Profile struct {
	N           int               // hashed address bits; vectors are truncated to N bits
	CacheBlocks int               // capacity filter used during profiling
	Table       []uint64          // flat backend: misses(v) for every v in [0, 2^N); nil when sparse
	Sparse      map[uint64]uint64 // sparse and sketch backends: misses(v) for nonzero entries only; nil when flat

	// Slack bounds the sketch backend's undercount: every count lies in
	// [true − Slack, true]. It is 0 on the exact backends.
	Slack    uint64
	entryCap int // the sketch's entry cap; 0 on the exact backends

	// Bookkeeping from the profiling pass.
	Accesses   uint64 // trace length
	Compulsory uint64 // first-touch accesses
	Capacity   uint64 // accesses filtered as capacity misses
	Candidates uint64 // accesses that contributed conflict vectors
	TotalPairs uint64 // total conflict-vector increments (raw, i.e. sampled counts when SampleK > 1)

	// Sampling bookkeeping (see sample.go). SampleK <= 1 means the
	// histogram is exact; SampleK = k means only every k-th conflict
	// candidate's reuse interval was walked, so histogram counts and
	// TotalPairs are a deterministic ~1/k subsample. Classification
	// counters (Compulsory/Capacity/Candidates) remain exact either
	// way. SampledCandidates counts the candidates actually walked.
	SampleK           uint64
	SampleSeed        uint64
	SampledCandidates uint64

	// Degraded marks a partial profile: the build was canceled (or hit
	// its deadline) and returned its best-so-far histogram alongside
	// the error instead of discarding the work. Accesses then counts
	// how far into the trace the pass got. A degraded profile is exact
	// for the prefix it covers and safe to search over, but its
	// estimates undercount the full trace.
	Degraded bool
}

// Build runs the Fig. 1 profiling algorithm over a block-address
// sequence. Blocks must already be truncated to n bits (see
// trace.Trace.Blocks). cacheBlocks is the cache capacity in blocks used
// for the capacity-miss filter.
func Build(blocks []uint64, n, cacheBlocks int) *Profile {
	b := NewBuilder(n, cacheBlocks)
	for _, blk := range blocks {
		b.Add(blk)
	}
	return b.Finish()
}

// Builder accumulates a Profile incrementally, one block access at a
// time — the streaming form of Build for traces too large to hold in
// memory (feed it straight from a trace decoder).
//
// The hot path is one lru.Stack gate (DESIGN.md §12): every access
// reads and rewrites the block's last-touch stamp, and compares the old
// stamp with the stamp of the last block in the window of the
// CacheBlocks+1 most recent blocks. A never-seen block is a compulsory
// miss and a block below the window a capacity miss, both classified
// without visiting a single window entry. A block in the window is a
// conflict candidate: the gate hands back the window, one contiguous
// slice, and the conflict walk counts the blocks in front of it — at
// most CacheBlocks of them — until it meets the block, which is then
// lifted from where the walk stopped.
type Builder struct {
	p     *Profile
	mask  uint64
	stack *lru.Stack
	base  BuildStats // Stats() when restored: the probes count the live pass
	done  bool

	// Sampling gate (see sample.go). sampleK <= 1 profiles every
	// candidate; otherwise sampleCount is the 1-indexed ordinal of the
	// conflict candidate just seen and sampleNext the next ordinal
	// whose reuse interval will be walked.
	sampleK     uint64
	sampleCount uint64
	sampleNext  uint64
}

// BuildStats exposes the hot-path probes of a Builder: how many
// conflict walks it performed and how much work the distance gate
// skipped. The hot path counts each probe once, in the profile's own
// counters: a walk per walked candidate (Candidates, or
// SampledCandidates when sampled), a histogram increment per visited
// window entry (TotalPairs — a rollback scheme would visit
// capacity-miss prefixes twice on top of that), and no walk at all for
// a capacity miss (Capacity). Counters restart at zero on a checkpoint
// restore; they probe the live pass, not the snapshot.
type BuildStats struct {
	CandidateWalks      uint64 // conflict walks performed: exactly one per walked candidate
	WalkSteps           uint64 // window entries visited across all walks
	GatedCapacityMisses uint64 // capacity misses resolved by the gate alone
}

// Stats returns the builder's hot-path probe counters, read off the
// profile's counters since the builder was made or restored.
func (bd *Builder) Stats() BuildStats {
	p := bd.p
	walks := p.Candidates
	if bd.sampleK > 1 {
		walks = p.SampledCandidates
	}
	return BuildStats{
		CandidateWalks:      walks - bd.base.CandidateWalks,
		WalkSteps:           p.TotalPairs - bd.base.WalkSteps,
		GatedCapacityMisses: p.Capacity - bd.base.GatedCapacityMisses,
	}
}

// NewBuilder starts an empty profile with the given hashed-address
// width and capacity filter. It panics on out-of-range arguments (the
// constructor convention; BuildStream validates and returns wrapped
// errors instead — see ValidateGeometry). Widths up to
// MaxFlatBits get the flat table backend; wider profiles are sparse.
func NewBuilder(n, cacheBlocks int) *Builder {
	if err := ValidateGeometry(n, cacheBlocks); err != nil {
		panic(err)
	}
	return newBuilder(n, cacheBlocks, 0)
}

// ValidateGeometry checks a (n, cacheBlocks) profiling geometry,
// returning a wrapped xerr.ErrInvalidOptions when it is out of domain.
func ValidateGeometry(n, cacheBlocks int) error {
	if n <= 0 || n > MaxBits {
		return fmt.Errorf("profile: n=%d outside (0, %d]: %w", n, MaxBits, xerr.ErrInvalidOptions)
	}
	if cacheBlocks <= 0 {
		return fmt.Errorf("profile: cacheBlocks=%d must be positive: %w", cacheBlocks, xerr.ErrInvalidOptions)
	}
	return nil
}

// newBuilder constructs a cold builder on the one histogram store its
// inputs allow: a sparse map capped at entryCap entries when entryCap
// is positive (the sketch; never a flat table, whatever n), otherwise
// a flat table for n <= MaxFlatBits and a sparse map beyond. The gate's
// stamps follow the same rule — direct-indexed exactly when the
// histogram is a flat table — so a sketch or sparse build never
// allocates 2^n of anything.
func newBuilder(n, cacheBlocks, entryCap int) *Builder {
	p := &Profile{N: n, CacheBlocks: cacheBlocks, entryCap: entryCap}
	if entryCap > 0 {
		p.Sparse = make(map[uint64]uint64)
	} else {
		p.fill(nil)
	}
	return p.builder()
}

// fill makes p's exact histogram store, a flat table for N <=
// MaxFlatBits and a sparse map beyond, holding support.
func (p *Profile) fill(support []VectorCount) {
	if p.N > MaxFlatBits {
		p.Sparse = make(map[uint64]uint64, len(support))
		for _, vc := range support {
			p.Sparse[uint64(vc.Vec)] = vc.Count
		}
		return
	}
	p.Table = make([]uint64, 1<<uint(p.N))
	for _, vc := range support {
		p.Table[vc.Vec] = vc.Count
	}
}

// builder returns a builder over p with a cold LRU gate.
func (p *Profile) builder() *Builder {
	return &Builder{
		p:     p,
		mask:  uint64(gf2.Mask(p.N)),
		stack: lru.NewStack(p.CacheBlocks+1, p.stampBits()),
	}
}

// stampBits is the width at which an LRU gate over p's blocks
// direct-indexes its stamps: N for a flat table, 0 (a map) otherwise.
func (p *Profile) stampBits() int {
	if p.Table != nil {
		return p.N
	}
	return 0
}

// Add records one block access (truncated to n bits internally).
func (bd *Builder) Add(block uint64) {
	if bd.done {
		panic("profile: Add after Finish")
	}
	p := bd.p
	b := block & bd.mask
	p.Accesses++
	// Distance gate: the access is classified from stamps before any
	// window entry is read. A capacity miss costs no walk at all.
	g, window := bd.stack.Touch(b)
	switch g {
	case lru.GateCold:
		// Compulsory miss: no conflict information.
		p.Compulsory++
		return
	case lru.GateBeyond:
		p.Capacity++
		return
	}
	// Conflict candidate: b is in the window, behind the blocks
	// accessed since its previous access — at most CacheBlocks of them,
	// by the gate — each of which contributes one conflict vector.
	p.Candidates++
	if k := bd.sampleK; k > 1 {
		// Sampling gate (sample.go): only every k-th candidate walks; a
		// skipped one is still lifted to the front of the window, found
		// by the gate's binary search, so the LRU state — and every
		// later classification — stays exact.
		if bd.sampleCount++; bd.sampleCount != bd.sampleNext {
			bd.stack.Lift(bd.stack.Find(b))
			return
		}
		bd.sampleNext += k
		p.SampledCandidates++
	}
	// The walk counts its way down the window to b; where it stops is
	// b's reuse distance, and the Lift there finishes the access.
	bd.stack.Lift(p.addPairs(b, window))
}

// addPairs is the conflict walk: it counts the conflict vector b⊕y into
// the active histogram backend for every block y of ys in front of the
// first b, or for all of ys when b is not among them, and returns how
// many it counted — b's index in ys when it is there. A capped map that
// outgrows its cap takes the Misra–Gries step (sketch.go).
func (p *Profile) addPairs(b uint64, ys []uint64) int {
	d := len(ys)
	if tbl := p.Table; tbl != nil {
		for i, y := range ys {
			if y == b {
				d = i
				break
			}
			tbl[b^y]++
		}
	} else {
		sp := p.Sparse
		for i, y := range ys {
			if y == b {
				d = i
				break
			}
			sp[b^y]++
			if p.entryCap > 0 && len(sp) > p.entryCap {
				p.decrement()
			}
		}
	}
	p.TotalPairs += uint64(d)
	return d
}

// Finish returns the accumulated profile; the builder must not be used
// afterwards.
func (bd *Builder) Finish() *Profile {
	bd.done = true
	return bd.p
}

// At returns misses(v), the histogram count of one conflict vector,
// regardless of backend. On the sketch backend the value is low by at
// most Slack.
func (p *Profile) At(v gf2.Vec) uint64 {
	if p.Table != nil {
		return p.Table[v]
	}
	return p.Sparse[uint64(v)]
}

// ForEachNonZero calls fn for every nonzero histogram entry. Order is
// ascending for the flat backend and unspecified for the map ones;
// use Support when a deterministic order matters.
func (p *Profile) ForEachNonZero(fn func(v gf2.Vec, count uint64)) {
	if p.Table != nil {
		for v, c := range p.Table {
			if c != 0 {
				fn(gf2.Vec(v), c)
			}
		}
		return
	}
	for v, c := range p.Sparse {
		fn(gf2.Vec(v), c)
	}
}

// Support returns the nonzero (vector, count) entries of the histogram
// in ascending vector order — the working set the null-space climb
// sweeps once per move instead of Gray-walking 2^d entries per
// candidate. The result is allocated exactly once: the flat backend
// counts its nonzero entries in a first pass (and is already in
// ascending order, so no sort is needed), the map backends size the
// slice from the map population.
func (p *Profile) Support() []VectorCount {
	if p.Table != nil {
		nonzero := 0
		for _, c := range p.Table {
			if c != 0 {
				nonzero++
			}
		}
		out := make([]VectorCount, 0, nonzero)
		for v, c := range p.Table {
			if c != 0 {
				out = append(out, VectorCount{Vec: gf2.Vec(v), Count: c})
			}
		}
		return out
	}
	out := make([]VectorCount, 0, len(p.Sparse))
	for v, c := range p.Sparse {
		out = append(out, VectorCount{Vec: gf2.Vec(v), Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vec < out[j].Vec })
	return out
}

// EstimateSubspace returns misses(H) per Eq. 4 for a hash function
// whose null space is the given subspace (see EstimateBasis).
func (p *Profile) EstimateSubspace(ns gf2.Subspace) uint64 {
	if ns.N != p.N {
		panic(fmt.Sprintf("profile: subspace ambient %d != profile n %d", ns.N, p.N))
	}
	return p.EstimateBasis(ns.Basis)
}

// EstimateBasis scores a null space given directly as a basis slice
// (vectors need not be canonical, only independent). It walks the
// 2^dim members in Gray-code order (Subspace.Members order) or scans
// the histogram support with one membership test per entry, whichever
// reads less: the flat table always walks, and a map walks while
// 2^dim is at most its population.
func (p *Profile) EstimateBasis(basis []gf2.Vec) uint64 {
	if p.Table == nil && (len(basis) >= 63 || 1<<len(basis) > len(p.Sparse)) {
		// Membership tests need a canonical basis; build one.
		return p.estimateSupport(gf2.Span(p.N, basis...).Basis)
	}
	return p.walkSum(basis)
}

// walkSum Gray-walks span(basis) against the histogram. The v = 0 term
// is included for symmetry but always zero: a block never conflicts
// with itself (x != y on the stack walk).
func (p *Profile) walkSum(basis []gf2.Vec) uint64 {
	sum := p.At(0)
	cur := gf2.Vec(0)
	for i := uint64(1); i < uint64(1)<<uint(len(basis)); i++ {
		cur ^= basis[bits.TrailingZeros64(i)]
		sum += p.At(cur)
	}
	return sum
}

// estimateSupport sums misses(v) over the support vectors lying in
// span(basis); basis must be canonical (distinct leading bits). Cost:
// one reduction per nonzero histogram entry, independent of dimension.
func (p *Profile) estimateSupport(basis []gf2.Vec) uint64 {
	var sum uint64
	p.ForEachNonZero(func(v gf2.Vec, c uint64) {
		if gf2.Reduce(v, basis) == 0 {
			sum += c
		}
	})
	return sum
}

// EstimateMatrix is EstimateSubspace on the null space of H.
func (p *Profile) EstimateMatrix(h gf2.Matrix) uint64 {
	return p.EstimateSubspace(h.NullSpace())
}

// EstimateConventional returns the estimate for modulo indexing with m
// set bits: the baseline every optimized function is compared against.
func (p *Profile) EstimateConventional(m int) uint64 {
	return p.EstimateSubspace(gf2.SpanUnits(p.N, m, p.N))
}

// HotVectors returns the k most frequent conflict vectors with their
// counts, descending. Useful for diagnosis and for seeding searches.
func (p *Profile) HotVectors(k int) []VectorCount {
	var out []VectorCount
	p.ForEachNonZero(func(v gf2.Vec, c uint64) {
		out = append(out, VectorCount{Vec: v, Count: c})
	})
	sortVectorCounts(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// VectorCount pairs a conflict vector with its accumulated count.
type VectorCount struct {
	Vec   gf2.Vec
	Count uint64
}

func sortVectorCounts(v []VectorCount) {
	sort.Slice(v, func(i, j int) bool {
		if v[i].Count != v[j].Count {
			return v[i].Count > v[j].Count
		}
		return v[i].Vec < v[j].Vec
	})
}

// Merge adds another profile's conflict histogram and bookkeeping into
// p (weighted union: counts simply accumulate). Useful to build one
// compromise function for a set of applications without materialising
// an interleaved trace; both profiles must share n and the capacity
// filter and the backend. Two sketches merge as Misra–Gries summaries
// (sketch.go). Note the merged estimate ignores cross-application
// conflicts (it models time-sharing with a flush at every switch).
func (p *Profile) Merge(o *Profile) error {
	if p.N != o.N {
		return fmt.Errorf("profile: cannot merge n=%d into n=%d: %w", o.N, p.N, xerr.ErrProfileMismatch)
	}
	if p.CacheBlocks != o.CacheBlocks {
		return fmt.Errorf("profile: capacity filters differ (%d vs %d blocks): %w", o.CacheBlocks, p.CacheBlocks, xerr.ErrProfileMismatch)
	}
	if (p.Table == nil) != (o.Table == nil) || p.entryCap != o.entryCap {
		return fmt.Errorf("profile: histogram backends differ (%s vs %s): %w",
			o.Backend(), p.Backend(), xerr.ErrProfileMismatch)
	}
	if len(p.Table) != len(o.Table) {
		return fmt.Errorf("profile: table sizes differ (%d vs %d entries): %w", len(o.Table), len(p.Table), xerr.ErrProfileMismatch)
	}
	if err := checkSamplingCompatible(p, o); err != nil {
		return err
	}
	switch {
	case p.Table != nil:
		// Only nonzero counts are added: writing every counter would
		// fault in all 8·2^n bytes of p's table.
		for v, c := range o.Table {
			if c != 0 {
				p.Table[v] += c
			}
		}
	case p.entryCap > 0:
		p.mergeCapped(o)
	default:
		for v, c := range o.Sparse {
			p.Sparse[v] += c
		}
	}
	p.Accesses += o.Accesses
	p.Compulsory += o.Compulsory
	p.Capacity += o.Capacity
	p.Candidates += o.Candidates
	p.TotalPairs += o.TotalPairs
	p.SampledCandidates += o.SampledCandidates
	p.Degraded = p.Degraded || o.Degraded
	return nil
}

// Backend returns the populated histogram backend's name: "flat",
// "sparse" or "sketch".
func (p *Profile) Backend() string {
	switch {
	case p.Table != nil:
		return "flat"
	case p.entryCap > 0:
		return "sketch"
	default:
		return "sparse"
	}
}

// HistogramBytes approximates the memory held by the histogram
// backend: exact for the flat table, and 48 bytes per map entry — key,
// value and bucket slot, ignoring Go's load-factor headroom — for the
// sparse map and for the sketch at its full cap, so sketch-vs-sparse
// memory ratios computed from it compare like with like.
func (p *Profile) HistogramBytes() int {
	switch {
	case p.Table != nil:
		return len(p.Table) * 8
	case p.entryCap > 0:
		return p.entryCap * 48
	default:
		return len(p.Sparse) * 48
	}
}
