package cache

import (
	"fmt"

	"xoridx/internal/hash"
)

// Skewed is a skewed-associative cache (Seznec & Bodin, cited as [2] in
// the paper): each way (bank) uses a different index function, so two
// blocks that conflict in one bank rarely conflict in another. Included
// as a related-work baseline for the evaluation harness.
//
// Replacement: LRU across the candidate lines (one per bank), which is
// a common approximation for 2-way skewed caches.
type Skewed struct {
	banks      [][]line // banks[w][set]
	idx        []hash.Func
	blockBytes int
	clock      uint64
	stats      Stats
}

// NewSkewed builds a skewed cache with one bank per index function.
// Every function must produce the same number of set bits; total
// capacity is len(idx) * 2^setBits * blockBytes.
func NewSkewed(blockBytes int, idx []hash.Func) (*Skewed, error) {
	if len(idx) < 2 {
		return nil, fmt.Errorf("cache: skewed cache needs >= 2 banks, got %d", len(idx))
	}
	m := idx[0].SetBits()
	for _, f := range idx {
		if f.SetBits() != m {
			return nil, fmt.Errorf("cache: skewed banks disagree on set bits (%d vs %d)", f.SetBits(), m)
		}
	}
	banks := make([][]line, len(idx))
	for w := range banks {
		banks[w] = make([]line, 1<<uint(m))
	}
	return &Skewed{banks: banks, idx: idx, blockBytes: blockBytes}, nil
}

// Access simulates one access by byte address; reports a miss.
func (s *Skewed) Access(addr uint64) bool {
	return s.AccessBlock(addr / uint64(s.blockBytes))
}

// AccessBlock simulates one access by block address.
func (s *Skewed) AccessBlock(block uint64) bool {
	s.clock++
	s.stats.Accesses++
	// In a skewed cache the full block address must be stored (or an
	// equivalently unambiguous tag), because set indices differ per
	// bank; we store the block address itself as the tag.
	victimBank := 0
	var victimAge uint64 = ^uint64(0)
	for w, f := range s.idx {
		set := f.Index(block)
		ln := &s.banks[w][set]
		if ln.valid && ln.tag == block {
			ln.used = s.clock
			return false
		}
		age := uint64(0)
		if ln.valid {
			age = ln.used
		}
		if age < victimAge {
			victimAge = age
			victimBank = w
		}
	}
	s.stats.Misses++
	set := s.idx[victimBank].Index(block)
	s.banks[victimBank][set] = line{tag: block, valid: true, used: s.clock}
	return true
}

// Stats returns accumulated statistics.
func (s *Skewed) Stats() Stats { return s.stats }
