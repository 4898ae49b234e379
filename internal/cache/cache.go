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
	"xoridx/internal/hash"
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
	Index      hash.Func   // index+tag function; nil = modulo over 16 bits
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

// line is one cache line; valid distinguishes cold lines. The block
// address is redundant with (tag, index) but kept so victim buffers and
// reconfiguration models can recover it without inverting the hash.
type line struct {
	tag   uint64
	block uint64
	valid bool
	dirty bool   // written since fill (write-back policy)
	used  uint64 // LRU timestamp within the set
}

// Cache is a trace-driven simulator instance.
type Cache struct {
	cfg   Config
	idx   hash.Func
	sets  [][]line
	clock uint64
	stats Stats
	rng   uint64 // xorshift state for Random replacement
}

// New builds a cache from the configuration. When cfg.Index is nil, a
// conventional modulo function over 16 block-address bits is used.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	idx := cfg.Index
	if idx == nil {
		f, err := hash.NewXOR(gf2.Identity(16, cfg.SetBits()))
		if err != nil {
			return nil, fmt.Errorf("cache: default modulo index: %w", err)
		}
		idx = f
	}
	if idx.SetBits() != cfg.SetBits() {
		return nil, fmt.Errorf("cache: index function has %d set bits, geometry needs %d: %w", idx.SetBits(), cfg.SetBits(), xerr.ErrInvalidGeometry)
	}
	sets := make([][]line, cfg.Sets())
	backing := make([]line, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:  cfg,
		idx:  idx,
		sets: sets,
		rng:  0x243F6A8885A308D3, // pi digits: fixed, reproducible
	}, nil
}

// Simulate builds a cache from cfg and runs one pass of the trace
// through it, honouring read/write kinds. It checks ctx before each
// chunk of the pass (at most trace.ChunkLen accesses); when ctx is done
// it returns the statistics accumulated so far alongside a wrapped
// xerr.ErrCanceled.
func Simulate(ctx context.Context, cfg Config, src trace.Source) (Stats, error) {
	c, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	pass, err := src.Pass(ctx)
	if err != nil {
		return Stats{}, err
	}
	defer pass.Close()
	block := uint64(cfg.BlockBytes)
	for {
		if err := xerr.Check(ctx); err != nil {
			return c.stats, err
		}
		chunk, err := pass.Chunk()
		if err == io.EOF {
			return c.stats, nil
		}
		if err != nil {
			return c.stats, err
		}
		for _, a := range chunk {
			c.access(a.Addr/block, a.Kind == trace.Write)
		}
	}
}

// Access simulates one read access by byte address and reports whether
// it missed.
func (c *Cache) Access(addr uint64) bool {
	return c.access(addr/uint64(c.cfg.BlockBytes), false)
}

// Write simulates one store by byte address (write-allocate,
// write-back) and reports whether it missed.
func (c *Cache) Write(addr uint64) bool {
	return c.access(addr/uint64(c.cfg.BlockBytes), true)
}

// AccessBlock simulates one read access by block address.
func (c *Cache) AccessBlock(block uint64) bool {
	return c.access(block, false)
}

func (c *Cache) access(block uint64, isWrite bool) bool {
	c.clock++
	c.stats.Accesses++
	if isWrite {
		c.stats.Writes++
	}
	set := c.idx.Index(block)
	tag := hash.TagWithHighBits(c.idx, block)

	lines := c.sets[set]
	victim := 0
	haveFree := false
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			if c.cfg.Repl != FIFO { // FIFO keeps fill time as the stamp
				lines[i].used = c.clock
			}
			if isWrite {
				lines[i].dirty = true
			}
			return false
		}
		if !lines[i].valid && !haveFree {
			victim = i
			haveFree = true
		} else if !haveFree && lines[i].used < lines[victim].used {
			victim = i
		}
	}
	if !haveFree && c.cfg.Repl == Random && len(lines) > 1 {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victim = int(c.rng % uint64(len(lines)))
	}

	// Miss: account the writeback, then fill (write-allocate).
	c.stats.Misses++
	if lines[victim].valid && lines[victim].dirty {
		c.stats.Writebacks++
	}
	lines[victim] = line{tag: tag, block: block, valid: true, dirty: isWrite, used: c.clock}
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
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
}

// SetIndex reconfigures the index function and flushes the cache (the
// two are inseparable in hardware — see Flush). The new function must
// produce the same number of set bits.
func (c *Cache) SetIndex(f hash.Func) error {
	if f.SetBits() != c.cfg.SetBits() {
		return fmt.Errorf("cache: new index function has %d set bits, geometry needs %d: %w",
			f.SetBits(), c.cfg.SetBits(), xerr.ErrInvalidGeometry)
	}
	c.idx = f
	c.Flush()
	return nil
}
