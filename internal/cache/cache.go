// Package cache implements a trace-driven cache simulator with
// pluggable index functions.
//
// The paper's experiments use direct-mapped caches of 1, 4 and 16 KB
// with 4-byte blocks, indexed either conventionally (modulo) or by an
// application-specific XOR function. This simulator supports those
// configurations plus set-associative, fully-associative and
// skewed-associative organisations used by the baselines and related
// work. Simulate runs a whole trace; New builds a stateful cache for
// callers that drive accesses one at a time.
package cache

import (
	"context"
	"fmt"
	"io"
	"math/bits"

	"xoridx/internal/gf2"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// Replacement selects the victim policy for associative sets.
type Replacement int

const (
	// LRU evicts the least recently used line (the paper's policy).
	LRU Replacement = iota
	// FIFO evicts the oldest-filled line regardless of reuse.
	FIFO
	// Random evicts a pseudo-random line (deterministic xorshift, so
	// simulations stay reproducible). Random replacement dodges the
	// cyclic-pattern pathology of LRU that the paper's §6.1 notes.
	Random
)

// Config describes a cache organisation.
type Config struct {
	SizeBytes  int         // total capacity
	BlockBytes int         // line size (power of two)
	Ways       int         // associativity; 1 = direct mapped
	Index      gf2.Matrix  // index function H; zero value = modulo over 16 bits
	Repl       Replacement // victim policy; default LRU
}

// Blocks returns the capacity in blocks.
func (c Config) Blocks() int { return c.SizeBytes / c.BlockBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Blocks() / c.Ways }

// SetBits returns log2(Sets), exact for the power-of-two set counts
// every valid Config has. For a non-power-of-two set count it returns
// -1 instead of the silent ceil(log2) it used to report; validate
// rejects such geometries before any simulator consumes the value.
func (c Config) SetBits() int {
	s := c.Sets()
	if s <= 0 || s&(s-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(s))
}

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v: %w", c, xerr.ErrInvalidGeometry)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two: %w", c.BlockBytes, xerr.ErrInvalidGeometry)
	}
	if c.SizeBytes%(c.BlockBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*block: %w", c.SizeBytes, xerr.ErrInvalidGeometry)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two: %w", s, xerr.ErrInvalidGeometry)
	}
	return nil
}

// Stats accumulates simulation results.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writes     uint64 // store accesses
	Writebacks uint64 // dirty lines evicted (write-back policy)
}

// MissRate returns Misses/Accesses (0 for an empty run).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MissesPerKOp normalises misses to the paper's misses-per-K-uop metric.
func (s Stats) MissesPerKOp(ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(s.Misses) * 1000 / float64(ops)
}

// Cache is a trace-driven simulator instance. Its lines live in flat
// slices indexed set*Ways + way: the resident block address, a state
// byte (valid, dirty) and, for LRU and FIFO sets of more than one way,
// a stamp (the access count at the last touch or at the fill). A line
// keeps its block address where hardware keeps a tag, so two blocks in
// one set compare equal exactly when they are the same block and no tag
// is computed. That holds for an index matrix of any rank: a
// rank-deficient H leaves some sets unused but still caches correctly.
type Cache struct {
	cfg    Config
	idx    gf2.LinearMap // the index function, tabulated
	ways   int
	shift  uint // log2(BlockBytes)
	blocks []uint64
	state  []uint8
	stamps []uint64 // nil when Ways == 1 or Repl == Random
	stats  Stats
	rng    uint64 // xorshift state for Random replacement
}

// Line state bits. A dirty line is always valid.
const (
	valid uint8 = 1 << iota
	dirty       // written since fill (write-back policy)
)

// New builds a cache from the configuration. When cfg.Index is the zero
// matrix, a conventional modulo function over 16 block-address bits is
// used. An index matrix of any rank is accepted; one whose width is
// outside [1, 64], whose columns have bits at or above its width, or
// whose set bits differ from the geometry's is a wrapped
// xerr.ErrInvalidGeometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := cfg.Index
	if h.N == 0 && h.M == 0 && h.Cols == nil {
		h = gf2.Identity(16, cfg.SetBits())
	}
	if err := checkIndex(h, cfg.SetBits()); err != nil {
		return nil, err
	}
	lines := cfg.Sets() * cfg.Ways
	c := &Cache{
		cfg:    cfg,
		idx:    gf2.NewLinearMap(h),
		ways:   cfg.Ways,
		shift:  uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		blocks: make([]uint64, lines),
		state:  make([]uint8, lines),
		rng:    0x243F6A8885A308D3, // pi digits: fixed, reproducible
	}
	if cfg.Ways > 1 && cfg.Repl != Random {
		c.stamps = make([]uint64, lines)
	}
	return c, nil
}

// Simulate runs one pass of src through a fresh cache for each of cfgs,
// honouring read/write kinds, and returns their statistics in cfgs'
// order. Each chunk of the pass (at most trace.ChunkLen accesses) runs
// through every cache in turn, so a trace is read once however many
// organisations it is compared under. Simulate checks ctx before each
// chunk; when ctx is done, or the pass fails, it returns every cache's
// statistics so far alongside the error (a wrapped xerr.ErrCanceled on
// cancellation). An invalid cfg fails before the pass starts.
func Simulate(ctx context.Context, src trace.Source, cfgs ...Config) ([]Stats, error) {
	caches := make([]*Cache, len(cfgs))
	for i, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = c
	}
	stats := func() []Stats {
		out := make([]Stats, len(caches))
		for i, c := range caches {
			out[i] = c.stats
		}
		return out
	}
	pass, err := src.Pass(ctx)
	if err != nil {
		return stats(), err
	}
	defer pass.Close()
	for {
		if err := xerr.Check(ctx); err != nil {
			return stats(), err
		}
		chunk, err := pass.Chunk()
		if err == io.EOF {
			return stats(), nil
		}
		if err != nil {
			return stats(), err
		}
		for _, c := range caches {
			c.run(chunk)
		}
	}
}

// run simulates one chunk of accesses.
func (c *Cache) run(chunk []trace.Access) {
	if c.ways > 1 {
		for _, a := range chunk {
			c.access(a.Addr>>c.shift, a.Kind == trace.Write)
		}
		return
	}
	// Direct mapped: one table lookup per address byte, one line probe.
	idx, blocks, state, shift := c.idx, c.blocks, c.state, c.shift
	var misses, writes, writebacks uint64
	for _, a := range chunk {
		b := a.Addr >> shift
		set := idx.Apply(gf2.Vec(b))
		var w uint8
		if a.Kind == trace.Write {
			w = dirty
			writes++
		}
		st := state[set]
		if st&valid != 0 && blocks[set] == b {
			state[set] = st | w
			continue
		}
		misses++
		if st&dirty != 0 {
			writebacks++
		}
		blocks[set] = b
		state[set] = valid | w
	}
	c.stats.Accesses += uint64(len(chunk))
	c.stats.Misses += misses
	c.stats.Writes += writes
	c.stats.Writebacks += writebacks
}

// Access simulates one read access by byte address and reports whether
// it missed.
func (c *Cache) Access(addr uint64) bool {
	return c.access(addr>>c.shift, false)
}

// Write simulates one store by byte address (write-allocate,
// write-back) and reports whether it missed.
func (c *Cache) Write(addr uint64) bool {
	return c.access(addr>>c.shift, true)
}

// AccessBlock simulates one read access by block address.
func (c *Cache) AccessBlock(block uint64) bool {
	return c.access(block, false)
}

// access simulates one access by block address. The victim is the
// first invalid way of the set, else the way with the oldest stamp (LRU
// and FIFO) or a pseudo-random way (Random).
func (c *Cache) access(block uint64, isWrite bool) bool {
	c.stats.Accesses++
	clock := c.stats.Accesses
	var w uint8
	if isWrite {
		c.stats.Writes++
		w = dirty
	}
	base := int(c.idx.Apply(gf2.Vec(block))) * c.ways
	blocks := c.blocks[base : base+c.ways]
	state := c.state[base : base+c.ways]
	var stamps []uint64
	if c.stamps != nil {
		stamps = c.stamps[base : base+c.ways]
	}
	victim, free := 0, false
	for i := range blocks {
		if state[i]&valid == 0 {
			if !free {
				victim, free = i, true
			}
			continue
		}
		if blocks[i] == block {
			state[i] |= w
			if c.cfg.Repl == LRU && stamps != nil { // FIFO keeps the fill time
				stamps[i] = clock
			}
			return false
		}
		if !free && stamps != nil && stamps[i] < stamps[victim] {
			victim = i
		}
	}
	if !free && c.cfg.Repl == Random && c.ways > 1 {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victim = int(c.rng % uint64(c.ways))
	}

	// Miss: account the writeback, then fill (write-allocate).
	c.stats.Misses++
	if state[victim]&dirty != 0 {
		c.stats.Writebacks++
	}
	blocks[victim] = block
	state[victim] = valid | w
	if stamps != nil {
		stamps[victim] = clock
	}
	return true
}

// MemoryTraffic returns the number of block transfers to/from memory:
// one fill per miss plus one transfer per writeback.
func (s Stats) MemoryTraffic() uint64 { return s.Misses + s.Writebacks }

// Stats returns the statistics accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Flush invalidates every line, as a reconfiguration of the index
// function requires in real hardware (set indices change, so resident
// lines become unreachable). Statistics are preserved: re-fetching a
// flushed block counts as a miss.
func (c *Cache) Flush() {
	clear(c.state)
}

// SetIndex reconfigures the index function and flushes the cache (the
// two are inseparable in hardware — see Flush). The new matrix is
// checked as New checks cfg.Index.
func (c *Cache) SetIndex(h gf2.Matrix) error {
	if err := checkIndex(h, c.cfg.SetBits()); err != nil {
		return err
	}
	c.idx = gf2.NewLinearMap(h)
	c.Flush()
	return nil
}

// checkIndex refuses an index matrix the simulator cannot tabulate for
// a geometry of m set bits: a width outside [1, 64], a column with bits
// at or above the width, or a set-bit count other than m.
func checkIndex(h gf2.Matrix, m int) error {
	if h.N < 1 || h.N > gf2.MaxBits {
		return fmt.Errorf("cache: index matrix has %d address bits, outside [1, %d]: %w", h.N, gf2.MaxBits, xerr.ErrInvalidGeometry)
	}
	if h.M != m || len(h.Cols) != m {
		return fmt.Errorf("cache: index matrix has %d set bits, geometry needs %d: %w", h.M, m, xerr.ErrInvalidGeometry)
	}
	for c, col := range h.Cols {
		if col&^gf2.Mask(h.N) != 0 {
			return fmt.Errorf("cache: index column %d (%#x) has bits at or above n=%d: %w",
				c, uint64(col), h.N, xerr.ErrInvalidGeometry)
		}
	}
	return nil
}
