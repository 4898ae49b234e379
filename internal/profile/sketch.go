package profile

// Count-min-sketch histogram backend (DESIGN.md §17). For n well past
// 32 bits a long trace can touch more distinct conflict vectors than a
// sparse map can afford to hold (the support is bounded by
// accesses × cacheBlocks, which at billions of accesses is itself
// billions). The sketch bounds histogram memory to depth × width
// counters regardless of support size, at the cost of bounded
// overestimation:
//
//	At(v) >= true(v)                                     always
//	At(v) <= true(v) + (e/width)·TotalPairs    with prob >= 1 − e^−depth
//
// per point query — the classic (ε, δ) count-min bound with
// ε = e/width and δ = e^−depth, and conservative update keeps actual
// error well under it (sketch_test.go cross-checks against the exact
// sparse backend).
//
// Eq. 4 estimates are not made of point queries. A sketch cannot list
// its support, so the backend tracks the TopK heaviest vectors (a
// min-heap over sketch estimates, the standard CM-heap construction),
// and every estimate on a sketch profile sums those heavy hitters'
// sketch counts: EstimateSubspace at any dimension, each search
// climb's neighbour scores, and the baseline. Heavy hitters are the
// vectors that decide a climb, and one measure keeps a search's
// estimate comparable with its baseline. The untracked tail is left out
// of every estimate, so a sketch estimate is not a bound on the exact
// Eq. 4 count either way.
//
// A build over several slices merges their sketches entrywise (same
// seeds row-for-row), so every per-row counter remains an upper bound
// of the true count after the merge; conservative update makes the
// merged counters order-dependent, so unlike flat/sparse builds such a
// sketch build is not bit-identical to a one-slice one — only
// bound-identical.

import (
	"fmt"
	"math"
	"sort"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// Sketch parameter defaults: 4 rows × 64 Ki counters = 2 MiB of
// histogram regardless of support size, ε ≈ 4.1e-5, δ ≈ 1.8%.
const (
	DefaultSketchWidth = 1 << 16
	DefaultSketchDepth = 4
	DefaultSketchTopK  = 1 << 12
)

// SketchOptions parameterises the count-min backend. Zero fields
// select the defaults above.
type SketchOptions struct {
	// Width is the number of counters per row; must be a power of two
	// (the row hash masks, it does not mod). ε = e/Width.
	Width int
	// Depth is the number of rows; δ = e^−Depth.
	Depth int
	// TopK is how many heavy hitters are tracked exactly for support
	// enumeration.
	TopK int
	// Seed derives the per-row hash functions; sketches merge only
	// when built from the same seed.
	Seed uint64
}

func (o SketchOptions) withDefaults() SketchOptions {
	if o.Width == 0 {
		o.Width = DefaultSketchWidth
	}
	if o.Depth == 0 {
		o.Depth = DefaultSketchDepth
	}
	if o.TopK == 0 {
		o.TopK = DefaultSketchTopK
	}
	return o
}

// Validate checks the options domain, returning a wrapped
// xerr.ErrInvalidOptions when out of range.
func (o SketchOptions) Validate() error {
	o = o.withDefaults()
	if o.Width < 2 || o.Width&(o.Width-1) != 0 {
		return fmt.Errorf("profile: sketch width %d not a power of two >= 2: %w", o.Width, xerr.ErrInvalidOptions)
	}
	if o.Depth < 1 || o.Depth > 16 {
		return fmt.Errorf("profile: sketch depth %d outside [1, 16]: %w", o.Depth, xerr.ErrInvalidOptions)
	}
	if o.TopK < 1 {
		return fmt.Errorf("profile: sketch TopK %d must be positive: %w", o.TopK, xerr.ErrInvalidOptions)
	}
	return nil
}

// Sketch is a conservative-update count-min sketch over conflict
// vectors plus an exact heavy-hitter set for support enumeration.
type Sketch struct {
	Width int
	Depth int
	Seed  uint64
	Rows  [][]uint64
	Total uint64 // total increments absorbed (the profile's TotalPairs)

	topK int
	hh   hhHeap
}

// NewSketch allocates an empty sketch. Options must be valid (see
// SketchOptions.Validate); the constructor panics otherwise, matching
// NewBuilder's convention.
func NewSketch(opt SketchOptions) *Sketch {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	opt = opt.withDefaults()
	s := &Sketch{Width: opt.Width, Depth: opt.Depth, Seed: opt.Seed, topK: opt.TopK}
	s.Rows = make([][]uint64, opt.Depth)
	for d := range s.Rows {
		s.Rows[d] = make([]uint64, opt.Width)
	}
	s.hh.pos = make(map[uint64]int, opt.TopK)
	return s
}

// rowHash maps a vector into row d. SplitMix64 over v mixed with a
// per-row tweak of the seed gives independent-enough row hashes without
// any dependency.
func (s *Sketch) rowHash(v uint64, d int) uint64 {
	return splitmix64((v^s.Seed)+uint64(d)*0x9e3779b97f4a7c15) & uint64(s.Width-1)
}

// Inc adds one occurrence of v with conservative update: only the rows
// currently at the minimum estimate grow, which never breaks the
// overestimate invariant and tightens the bound in practice. Each row
// is hashed once, for both the minimum and the update.
func (s *Sketch) Inc(v uint64) {
	var idx [16]uint64 // Depth <= 16 (Validate)
	min := ^uint64(0)
	for d, row := range s.Rows {
		idx[d] = s.rowHash(v, d)
		if c := row[idx[d]]; c < min {
			min = c
		}
	}
	est := min + 1
	for d, row := range s.Rows {
		if row[idx[d]] < est {
			row[idx[d]] = est
		}
	}
	s.Total++
	s.offer(v, est)
}

// At returns the sketch estimate for v: the minimum over rows, an
// upper bound on the true count.
func (s *Sketch) At(v uint64) uint64 {
	min := ^uint64(0)
	for d := range s.Rows {
		if c := s.Rows[d][s.rowHash(v, d)]; c < min {
			min = c
		}
	}
	return min
}

// ErrorBound returns the (ε, δ) guarantee of this geometry: a point
// query overestimates by more than ε·Total with probability at most δ.
func (s *Sketch) ErrorBound() (eps, delta float64) {
	return math.E / float64(s.Width), math.Exp(-float64(s.Depth))
}

// Slack returns the additive point-query error bound ε·Total in
// counts, rounded up.
func (s *Sketch) Slack() uint64 {
	eps, _ := s.ErrorBound()
	return uint64(math.Ceil(eps * float64(s.Total)))
}

// Bytes returns the histogram memory of the sketch: the counter rows
// plus the heavy-hitter heap (entry + index map, ~48 bytes per tracked
// vector).
func (s *Sketch) Bytes() int {
	return s.Depth*s.Width*8 + len(s.hh.entries)*48
}

// HeavyHitters returns the tracked vectors with their sketch
// estimates, unsorted. The slice is freshly allocated.
func (s *Sketch) HeavyHitters() []VectorCount {
	out := make([]VectorCount, len(s.hh.entries))
	for i, e := range s.hh.entries {
		out[i] = VectorCount{Vec: gf2.Vec(e.vec), Count: e.est}
	}
	return out
}

// Merge folds another sketch into s entrywise. Both must share
// geometry and seed (same row hashes), or the counters would not line
// up; the heavy-hitter sets are unioned and re-estimated against the
// merged counters.
func (s *Sketch) Merge(o *Sketch) error {
	if s.Width != o.Width || s.Depth != o.Depth || s.Seed != o.Seed {
		return fmt.Errorf("profile: sketch geometries differ (%dx%d seed %d vs %dx%d seed %d): %w",
			s.Depth, s.Width, s.Seed, o.Depth, o.Width, o.Seed, xerr.ErrProfileMismatch)
	}
	for d := range s.Rows {
		row, orow := s.Rows[d], o.Rows[d]
		for i := range row {
			row[i] += orow[i]
		}
	}
	s.Total += o.Total
	// Re-offer both heavy-hitter sets at their merged estimates: the
	// union's true top-K all appear in one of the halves' top-K sets
	// whenever their per-half estimates were tracked.
	merged := append(s.hh.drain(), o.hh.entries...)
	for _, e := range merged {
		s.offer(e.vec, s.At(e.vec))
	}
	return nil
}

// offer proposes v at estimate est for heavy-hitter tracking.
func (s *Sketch) offer(v uint64, est uint64) {
	s.hh.offer(v, est, s.topK)
}

// clone deep-copies the sketch.
func (s *Sketch) clone() *Sketch {
	c := &Sketch{Width: s.Width, Depth: s.Depth, Seed: s.Seed, Total: s.Total, topK: s.topK}
	c.Rows = make([][]uint64, len(s.Rows))
	for d := range s.Rows {
		c.Rows[d] = append([]uint64(nil), s.Rows[d]...)
	}
	c.hh.entries = append([]hhEntry(nil), s.hh.entries...)
	c.hh.pos = make(map[uint64]int, len(s.hh.pos))
	for v, i := range s.hh.pos {
		c.hh.pos[v] = i
	}
	return c
}

// hhEntry is one tracked heavy hitter.
type hhEntry struct {
	vec uint64
	est uint64
}

// hhHeap is a min-heap over sketch estimates with an index map, so an
// already-tracked vector updates in place and the smallest tracked
// vector is evicted in O(log K) when a heavier one arrives.
type hhHeap struct {
	entries []hhEntry
	pos     map[uint64]int
}

// offer inserts or updates v at estimate est, keeping at most k
// entries and always the k heaviest seen so far (by current estimate).
func (h *hhHeap) offer(v, est uint64, k int) {
	if i, ok := h.pos[v]; ok {
		// Estimates only grow, so an update can only sift down (away
		// from the root of a min-heap).
		h.entries[i].est = est
		h.down(i)
		return
	}
	if len(h.entries) < k {
		h.entries = append(h.entries, hhEntry{vec: v, est: est})
		h.pos[v] = len(h.entries) - 1
		h.up(len(h.entries) - 1)
		return
	}
	if est <= h.entries[0].est {
		return
	}
	delete(h.pos, h.entries[0].vec)
	h.entries[0] = hhEntry{vec: v, est: est}
	h.pos[v] = 0
	h.down(0)
}

// drain empties the heap and returns its former entries.
func (h *hhHeap) drain() []hhEntry {
	out := h.entries
	h.entries = nil
	clear(h.pos)
	return out
}

func (h *hhHeap) less(i, j int) bool {
	if h.entries[i].est != h.entries[j].est {
		return h.entries[i].est < h.entries[j].est
	}
	return h.entries[i].vec < h.entries[j].vec
}

func (h *hhHeap) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.pos[h.entries[i].vec] = i
	h.pos[h.entries[j].vec] = j
}

func (h *hhHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *hhHeap) down(i int) {
	n := len(h.entries)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		small := left
		if right := left + 1; right < n && h.less(right, left) {
			small = right
		}
		if !h.less(small, i) {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// sketchSupport returns the heavy hitters in ascending vector order —
// the sketch's stand-in for exact support enumeration.
func (s *Sketch) support() []VectorCount {
	out := s.HeavyHitters()
	sort.Slice(out, func(i, j int) bool { return out[i].Vec < out[j].Vec })
	return out
}
