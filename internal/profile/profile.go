// Package profile implements the profiling phase of the paper's
// construction algorithm (Fig. 1) and the null-space miss estimator
// (Eq. 4).
//
// One pass over the block-address trace maintains an LRU stack. For
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
// histogram is stored as a flat 2^n table so a candidate null space of
// dimension d is scored with a 2^d-step Gray-code walk — the trick that
// makes hill climbing over the design space affordable. Wider addresses
// switch to a sparse map backend automatically: a trace of length L
// touches at most L·cacheBlocks distinct conflict vectors regardless of
// n, so the histogram support stays bounded while 2^n does not.
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
// Exactly one backend is populated: Table for n <= MaxFlatBits, Sparse
// beyond that, or Sketch when a caller opts into the approximate
// count-min backend (see sketch.go). Code that indexes Table directly
// only works on flat profiles; use At, ForEachNonZero or Support to
// stay backend-agnostic.
type Profile struct {
	N           int               // hashed address bits; vectors are truncated to N bits
	CacheBlocks int               // capacity filter used during profiling
	Table       []uint64          // flat backend: misses(v) for every v in [0, 2^N); nil when sparse
	Sparse      map[uint64]uint64 // sparse backend: misses(v) for nonzero entries only; nil when flat
	Sketch      *Sketch           // count-min backend: approximate, never undercounting; nil otherwise

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
// The hot path is distance-gated (DESIGN.md §12): every access first
// classifies its reuse distance against the capacity filter with one
// Olken order-statistics query (or none, when the raw access gap
// already proves the distance fits), so a
// capacity miss is classified without visiting a single stack entry
// and a conflict candidate walks the arena stack exactly once, with
// no rollback path.
type Builder struct {
	p     *Profile
	mask  uint64
	stack *lru.Stack
	tree  *lru.DistanceTree
	stats BuildStats
	done  bool

	// Sampling gate (see sample.go). sampleK <= 1 profiles every
	// candidate; otherwise sampleCount is the 1-indexed ordinal of the
	// conflict candidate just seen and sampleNext the next ordinal
	// whose reuse interval will be walked.
	sampleK     uint64
	sampleCount uint64
	sampleNext  uint64
}

// BuildStats exposes the hot-path probes of a Builder: how many stack
// walks it performed and how much work the distance gate skipped. The
// invariants the tests pin are CandidateWalks == Profile.Candidates,
// WalkSteps == Profile.TotalPairs (every visited entry contributes
// exactly one histogram increment — a rollback scheme would visit
// capacity-miss prefixes twice on top of that), and
// GatedCapacityMisses == Profile.Capacity (no capacity miss ever
// touches the stack). Counters restart at zero on a checkpoint
// restore; they probe the live pass, not the snapshot.
type BuildStats struct {
	CandidateWalks      uint64 // stack walks performed: exactly one per conflict candidate
	WalkSteps           uint64 // stack entries visited across all walks
	GatedCapacityMisses uint64 // capacity misses resolved by the gate alone
}

// Stats returns the builder's hot-path probe counters.
func (bd *Builder) Stats() BuildStats { return bd.stats }

// NewBuilder starts an empty profile with the given hashed-address
// width and capacity filter. It panics on out-of-range arguments (the
// constructor convention; BuildStream validates and returns wrapped
// errors instead — see ValidateGeometry). Widths up to
// MaxFlatBits get the flat table backend; wider profiles are sparse.
func NewBuilder(n, cacheBlocks int) *Builder {
	if err := ValidateGeometry(n, cacheBlocks); err != nil {
		panic(err)
	}
	return newBuilder(n, cacheBlocks, n > MaxFlatBits)
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

func newBuilder(n, cacheBlocks int, sparse bool) *Builder {
	p := &Profile{N: n, CacheBlocks: cacheBlocks}
	if sparse {
		p.Sparse = make(map[uint64]uint64)
	} else {
		p.Table = make([]uint64, 1<<uint(n))
	}
	return &Builder{
		p:     p,
		mask:  uint64(gf2.Mask(n)),
		stack: lru.NewStack(),
		tree:  lru.NewDistanceTree(),
	}
}

// Add records one block access (truncated to n bits internally).
func (bd *Builder) Add(block uint64) {
	if bd.done {
		panic("profile: Add after Finish")
	}
	p := bd.p
	b := block & bd.mask
	p.Accesses++
	// Distance gate: one O(log u) order-statistics query (skipped
	// entirely when the raw access gap already proves the distance is
	// within the filter) classifies the access before any stack entry
	// is visited. A capacity miss — which the old code paid a bounded
	// walk plus a full rollback re-walk to discover — now costs no
	// walk at all.
	switch bd.tree.TouchGate(b, p.CacheBlocks) {
	case lru.GateCold:
		// Compulsory miss: no conflict information.
		p.Compulsory++
		bd.stack.Push(b)
		return
	case lru.GateBeyond:
		p.Capacity++
		bd.stats.GatedCapacityMisses++
		bd.stack.MoveToTop(b)
		return
	}
	// Conflict candidate: the blocks above b are exactly the blocks
	// accessed since its previous access, and the gate guarantees the
	// walk reaches b within the filter. Walk them once, accumulating
	// straight into the active backend — no callback, no per-element
	// backend branch, no undo path — and batch the pair bookkeeping.
	target, _ := bd.stack.Index(b)
	p.Candidates++
	if k := bd.sampleK; k > 1 {
		// Sampling gate (sample.go): only every k-th candidate walks;
		// a skipped one still refreshes its recency, so the LRU state
		// — and every later classification — stays exact.
		if bd.sampleCount++; bd.sampleCount != bd.sampleNext {
			bd.stack.MoveIndexToTop(target)
			return
		}
		bd.sampleNext += k
		p.SampledCandidates++
	}
	nodes, top := bd.stack.Raw()
	d := uint64(0)
	if tbl := p.Table; tbl != nil {
		for i := top; i != target; i = nodes[i].Next {
			tbl[b^nodes[i].Block]++
			d++
		}
	} else if sk := p.Sketch; sk != nil {
		for i := top; i != target; i = nodes[i].Next {
			sk.Inc(b ^ nodes[i].Block)
			d++
		}
	} else {
		sp := p.Sparse
		for i := top; i != target; i = nodes[i].Next {
			sp[b^nodes[i].Block]++
			d++
		}
	}
	p.TotalPairs += d
	bd.stats.CandidateWalks++
	bd.stats.WalkSteps += d
	bd.stack.MoveIndexToTop(target)
}

// Warm replays one block access into the LRU stack without counting
// anything: no conflict vectors, no bookkeeping. It reconstructs the
// stack context at a shard boundary so a chunked builder classifies the
// accesses of its own shard exactly as a sequential pass would (see
// DESIGN.md §8).
func (bd *Builder) Warm(block uint64) {
	if bd.done {
		panic("profile: Warm after Finish")
	}
	b := block & bd.mask
	if bd.tree.Record(b) {
		bd.stack.Push(b)
	} else {
		bd.stack.MoveToTop(b)
	}
}

// Seen reports whether the block is on the builder's LRU stack, i.e.
// has been passed to Add or Warm before. The next Add of an unseen
// block will be classified as a compulsory miss.
func (bd *Builder) Seen(block uint64) bool {
	return bd.stack.Contains(block & bd.mask)
}

// GateSummary exports the builder's boundary state for the sharded
// merge (DESIGN.md §13): its distinct blocks in first-touch order and
// in final recency order, read straight off the arena stack with no
// per-access bookkeeping during the pass. Only meaningful for a builder
// that ran its accesses from cold (the first-touch order of a
// checkpoint-restored builder is the snapshot's recency order, not the
// original trace's).
func (bd *Builder) GateSummary() lru.GateSummary {
	return bd.stack.Summary()
}

// Finish returns the accumulated profile; the builder must not be used
// afterwards.
func (bd *Builder) Finish() *Profile {
	bd.done = true
	return bd.p
}

// At returns misses(v), the histogram count of one conflict vector,
// regardless of backend. On the sketch backend the value is the
// count-min estimate: an upper bound within the (ε, δ) guarantee.
func (p *Profile) At(v gf2.Vec) uint64 {
	if p.Table != nil {
		return p.Table[v]
	}
	if p.Sketch != nil {
		return p.Sketch.At(uint64(v))
	}
	return p.Sparse[uint64(v)]
}

// ForEachNonZero calls fn for every nonzero histogram entry. Order is
// ascending for the flat backend and unspecified for the sparse one;
// use Support when a deterministic order matters. On the sketch
// backend only the tracked heavy hitters are enumerable — the tail is
// reachable through point queries (At) but not through enumeration.
func (p *Profile) ForEachNonZero(fn func(v gf2.Vec, count uint64)) {
	if p.Table != nil {
		for v, c := range p.Table {
			if c != 0 {
				fn(gf2.Vec(v), c)
			}
		}
		return
	}
	if p.Sketch != nil {
		for _, vc := range p.Sketch.HeavyHitters() {
			fn(vc.Vec, vc.Count)
		}
		return
	}
	for v, c := range p.Sparse {
		fn(gf2.Vec(v), c)
	}
}

// Support returns the nonzero (vector, count) entries of the histogram
// in ascending vector order — the working set the incremental search
// engine sweeps per hyperplane instead of Gray-walking 2^d entries per
// candidate. The result is allocated exactly once: the flat backend
// counts its nonzero entries in a first pass (and is already in
// ascending order, so no sort is needed), the sparse backend sizes the
// slice from the map population.
func (p *Profile) Support() []VectorCount {
	if p.Sketch != nil {
		return p.Sketch.support()
	}
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
// whose null space is the given subspace. Cost: 2^dim table reads via a
// Gray-code walk (Subspace.Members order) while the dimension is
// enumerable; for larger null spaces it scans the histogram support and
// tests membership instead, which lifts the old dim <= 28 panic.
func (p *Profile) EstimateSubspace(ns gf2.Subspace) uint64 {
	if ns.N != p.N {
		panic(fmt.Sprintf("profile: subspace ambient %d != profile n %d", ns.N, p.N))
	}
	if ns.Dim() > maxWalkDim {
		return p.estimateSupport(ns.Basis)
	}
	return p.walkSum(ns.Basis)
}

// maxWalkDim bounds the Gray-code walk: past 2^28 entries the
// support-scan route is both feasible and faster.
const maxWalkDim = 28

// EstimateBasis scores a null space given directly as a basis slice
// (vectors need not be canonical, only independent). This avoids
// constructing a Subspace in the search inner loop.
func (p *Profile) EstimateBasis(basis []gf2.Vec) uint64 {
	if len(basis) > maxWalkDim {
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

// EstimateDelta returns Σ misses(v) over the coset span(w) ⊕ rep — the
// incremental term of DESIGN.md §10: a neighbour span(W, rep) of a null
// space splits into span(W) ∪ (span(W) ⊕ rep), so its Eq. 4 estimate is
// the hyperplane's partial sum plus this delta. Cost: 2^len(w) reads,
// half of re-walking the full neighbour (falling back to a support scan
// when w itself is too large to enumerate).
func (p *Profile) EstimateDelta(w []gf2.Vec, rep gf2.Vec) uint64 {
	rep &= gf2.Mask(p.N)
	if len(w) > maxWalkDim {
		sp := gf2.Span(p.N, w...)
		want := gf2.Reduce(rep, sp.Basis)
		var sum uint64
		p.ForEachNonZero(func(v gf2.Vec, c uint64) {
			if gf2.Reduce(v, sp.Basis) == want {
				sum += c
			}
		})
		return sum
	}
	sum := p.At(rep)
	cur := rep
	for i := uint64(1); i < uint64(1)<<uint(len(w)); i++ {
		cur ^= w[bits.TrailingZeros64(i)]
		sum += p.At(cur)
	}
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
// filter. Note the merged estimate ignores cross-application conflicts
// (it models time-sharing with a flush at every switch).
func (p *Profile) Merge(o *Profile) error {
	if p.N != o.N {
		return fmt.Errorf("profile: cannot merge n=%d into n=%d: %w", o.N, p.N, xerr.ErrProfileMismatch)
	}
	if p.CacheBlocks != o.CacheBlocks {
		return fmt.Errorf("profile: capacity filters differ (%d vs %d blocks): %w", o.CacheBlocks, p.CacheBlocks, xerr.ErrProfileMismatch)
	}
	if (p.Table == nil) != (o.Table == nil) || (p.Sketch == nil) != (o.Sketch == nil) {
		return fmt.Errorf("profile: histogram backends differ (%s vs %s): %w",
			o.backendName(), p.backendName(), xerr.ErrProfileMismatch)
	}
	if len(p.Table) != len(o.Table) {
		return fmt.Errorf("profile: table sizes differ (%d vs %d entries): %w", len(o.Table), len(p.Table), xerr.ErrProfileMismatch)
	}
	if err := checkSamplingCompatible(p, o); err != nil {
		return err
	}
	switch {
	case p.Table != nil:
		for v, c := range o.Table {
			p.Table[v] += c
		}
	case p.Sketch != nil:
		if err := p.Sketch.Merge(o.Sketch); err != nil {
			return err
		}
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

// backendName names the populated histogram backend, for error
// messages and the CLI's -backend flag domain.
func (p *Profile) backendName() string {
	switch {
	case p.Table != nil:
		return "flat"
	case p.Sketch != nil:
		return "sketch"
	default:
		return "sparse"
	}
}

// Backend returns the populated histogram backend's name: "flat",
// "sparse" or "sketch".
func (p *Profile) Backend() string { return p.backendName() }

// HistogramBytes approximates the memory held by the histogram
// backend: exact for the flat table and the sketch rows, and a
// deliberate underestimate for the sparse map (48 bytes per entry —
// key, value and bucket slot, ignoring Go's load-factor headroom), so
// sketch-vs-sparse memory ratios computed from it are conservative.
func (p *Profile) HistogramBytes() int {
	switch {
	case p.Table != nil:
		return len(p.Table) * 8
	case p.Sketch != nil:
		return p.Sketch.Bytes()
	default:
		return len(p.Sparse) * 48
	}
}
