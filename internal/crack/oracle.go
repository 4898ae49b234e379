package crack

import (
	"fmt"

	"xoridx/internal/cache"
	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// Stats counts the attacker-visible cost of probing: how many probe
// sequences were issued (Queries) and how many memory accesses they
// contained in total (Accesses). The eviction-set literature prices
// attacks in accesses; the query count is the number of timed
// prime-probe rounds, which is what adaptive strategies minimize.
type Stats struct {
	Queries  uint64
	Accesses uint64
}

// Oracle is the black box under attack: a direct-mapped cache with a
// hidden index function that can only be driven by memory accesses and
// observed through hit/miss behaviour. Implementations must answer
// Conflicts without exposing the function itself.
type Oracle interface {
	// AddrBits returns n, the hashed block-address width. The attacker
	// is assumed to know the geometry (it is printed on the datasheet);
	// only the index function is secret.
	AddrBits() int
	// Conflicts reports whether accessing every address of group (in
	// order) evicts target from the cache: prime target, walk the
	// group, re-access target, observe whether the re-access misses.
	// For a direct-mapped cache that is exactly "some group member maps
	// to target's set". Group members must be distinct from target.
	Conflicts(target uint64, group []uint64) bool
	// Stats returns the cumulative probe cost so far.
	Stats() Stats
}

// SimOracle is an Oracle over an internal/cache simulator with a
// planted hidden function. Two observation styles are supported (the
// two probe primitives of the reverse-engineering literature):
//
//   - hit/miss: the attacker sees the full per-access hit/miss vector
//     of each probe sequence and reads the answer off the last access
//     (Wei et al.'s timing measurements);
//   - eviction-set membership: the attacker only learns the boolean
//     "did the candidate set evict the target" (Vila et al.'s TEST).
//
// Both reduce to the same cache mechanics; the style selects what the
// oracle exposes, and RunSequence is only available in hit/miss style.
type SimOracle struct {
	c     *cache.Cache
	n     int
	style Style
	stats Stats
}

// Style selects the observation interface a SimOracle exposes.
type Style int

const (
	// HitMiss exposes per-access hit/miss vectors (RunSequence).
	HitMiss Style = iota
	// EvictionSet exposes only the membership-test boolean.
	EvictionSet
)

// String names the style for CLI/report output.
func (s Style) String() string {
	switch s {
	case HitMiss:
		return "hitmiss"
	case EvictionSet:
		return "evict"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// NewSimOracle plants h as the index matrix of a direct-mapped
// simulator of 2^h.M sets and returns the black box. Any rank is
// allowed: a rank-deficient H (some sets unreachable — a plausible
// buggy or degenerate deployment) just aliases sets, as hardware wired
// with it would. The block size is fixed at the paper's 4 bytes; probes
// address blocks directly so it never matters.
func NewSimOracle(h gf2.Matrix, style Style) (*SimOracle, error) {
	if h.M < 1 || h.M >= h.N {
		return nil, fmt.Errorf("crack: need 1 <= m < n, got %dx%d: %w", h.N, h.M, xerr.ErrInvalidGeometry)
	}
	const blockBytes = 4
	c, err := cache.New(cache.Config{
		SizeBytes:  blockBytes << uint(h.M),
		BlockBytes: blockBytes,
		Ways:       1,
		Index:      h,
	})
	if err != nil {
		return nil, err
	}
	return &SimOracle{c: c, n: h.N, style: style}, nil
}

// AddrBits implements Oracle.
func (o *SimOracle) AddrBits() int { return o.n }

// Style returns the observation style the oracle was built with.
func (o *SimOracle) Style() Style { return o.style }

// Conflicts implements Oracle. No flush is needed between probes: the
// priming access makes target resident whatever state earlier probes
// left behind, so the final re-access misses iff a group member maps
// to target's set — the probe is self-contained on a direct-mapped
// cache.
func (o *SimOracle) Conflicts(target uint64, group []uint64) bool {
	o.stats.Queries++
	o.stats.Accesses += uint64(len(group)) + 2
	o.c.AccessBlock(target)
	for _, g := range group {
		o.c.AccessBlock(g)
	}
	return o.c.AccessBlock(target)
}

// RunSequence plays an arbitrary block-address sequence and returns
// the per-access miss vector — the raw hit/miss observation interface.
// It is only available in HitMiss style; the eviction-set oracle
// deliberately hides individual accesses.
func (o *SimOracle) RunSequence(seq []uint64) ([]bool, error) {
	if o.style != HitMiss {
		return nil, fmt.Errorf("crack: RunSequence needs a hit/miss oracle: %w", xerr.ErrInvalidOptions)
	}
	o.stats.Queries++
	o.stats.Accesses += uint64(len(seq))
	misses := make([]bool, len(seq))
	for i, b := range seq {
		misses[i] = o.c.AccessBlock(b)
	}
	return misses, nil
}

// Stats implements Oracle.
func (o *SimOracle) Stats() Stats { return o.stats }

// NoisyOracle wraps an Oracle with spurious misses: with probability
// Rate each probe's final observation is forced to "miss" (reported as
// a conflict even when none occurred), the way an interfering
// co-runner or prefetcher pollutes timing measurements on real
// hardware. The flip stream is deterministic in Seed, so noisy runs
// reproduce. Crack's majority-vote repetition (Options.Repeats) is the
// countermeasure.
type NoisyOracle struct {
	Inner Oracle
	Rate  float64
	rng   uint64
}

// NewNoisyOracle seeds the deterministic flip stream; a zero seed is
// remapped so the splitmix state never sticks at zero.
func NewNoisyOracle(inner Oracle, rate float64, seed int64) *NoisyOracle {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &NoisyOracle{Inner: inner, Rate: rate, rng: s}
}

// AddrBits implements Oracle.
func (o *NoisyOracle) AddrBits() int { return o.Inner.AddrBits() }

// Stats implements Oracle.
func (o *NoisyOracle) Stats() Stats { return o.Inner.Stats() }

// Conflicts implements Oracle, forcing a spurious positive with
// probability Rate.
func (o *NoisyOracle) Conflicts(target uint64, group []uint64) bool {
	hit := o.Inner.Conflicts(target, group)
	if o.next() < o.Rate {
		return true
	}
	return hit
}

// next returns a deterministic uniform float64 in [0, 1) (splitmix64).
func (o *NoisyOracle) next() float64 {
	o.rng += 0x9E3779B97F4A7C15
	z := o.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
