package cache

import (
	"fmt"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/xerr"
)

// Skewed is a skewed-associative cache (Seznec & Bodin, cited as [2] in
// the paper): each way (bank) uses a different index function, so two
// blocks that conflict in one bank rarely conflict in another. Included
// as a related-work baseline for the evaluation harness.
//
// Replacement: LRU across the candidate lines (one per bank), which is
// a common approximation for 2-way skewed caches.
type Skewed struct {
	idx        []gf2.LinearMap // one tabulated index function per bank
	sets       int
	blocks     []uint64 // bank w's set s at w*sets + s
	used       []uint64 // LRU stamp (access count); 0 = empty line
	blockBytes int
	stats      Stats
}

// NewSkewed builds a skewed cache with one bank per index function.
// Every function must produce the same number of set bits; total
// capacity is len(idx) * 2^setBits * blockBytes. A block size that is
// not a positive power of two is a wrapped xerr.ErrInvalidGeometry, as
// in New.
func NewSkewed(blockBytes int, idx []hash.Func) (*Skewed, error) {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a positive power of two: %w", blockBytes, xerr.ErrInvalidGeometry)
	}
	if len(idx) < 2 {
		return nil, fmt.Errorf("cache: skewed cache needs >= 2 banks, got %d", len(idx))
	}
	m := idx[0].SetBits()
	maps := make([]gf2.LinearMap, len(idx))
	for w, f := range idx {
		if f.SetBits() != m {
			return nil, fmt.Errorf("cache: skewed banks disagree on set bits (%d vs %d)", f.SetBits(), m)
		}
		maps[w] = gf2.NewLinearMap(f.Matrix())
	}
	sets := 1 << uint(m)
	return &Skewed{
		idx:        maps,
		sets:       sets,
		blocks:     make([]uint64, len(idx)*sets),
		used:       make([]uint64, len(idx)*sets),
		blockBytes: blockBytes,
	}, nil
}

// Access simulates one access by byte address; reports a miss.
func (s *Skewed) Access(addr uint64) bool {
	return s.AccessBlock(addr / uint64(s.blockBytes))
}

// AccessBlock simulates one access by block address.
func (s *Skewed) AccessBlock(block uint64) bool {
	s.stats.Accesses++
	// Set indices differ per bank, so a line must hold the block
	// address itself (or an equally unambiguous tag).
	victim := 0
	victimAge := ^uint64(0)
	for w, f := range s.idx {
		i := w*s.sets + int(f.Apply(gf2.Vec(block)))
		if s.used[i] != 0 && s.blocks[i] == block {
			s.used[i] = s.stats.Accesses
			return false
		}
		if s.used[i] < victimAge {
			victimAge, victim = s.used[i], i
		}
	}
	s.stats.Misses++
	s.blocks[victim], s.used[victim] = block, s.stats.Accesses
	return true
}

// Stats returns accumulated statistics.
func (s *Skewed) Stats() Stats { return s.stats }
