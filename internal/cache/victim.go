package cache

import (
	"fmt"

	"xoridx/internal/gf2"
)

// VictimCache is a direct-mapped cache backed by a small
// fully-associative victim buffer (Jouppi, ISCA 1990): lines evicted
// from the main cache park in the buffer, and a main-cache miss that
// hits the buffer swaps the line back. It is the classic hardware
// alternative for absorbing conflict misses and serves as one more
// baseline for the XOR-indexing comparison.
type VictimCache struct {
	main    *Cache
	victims []victimLine
	clock   uint64
	stats   Stats
	swaps   uint64
}

type victimLine struct {
	block uint64
	valid bool
	used  uint64
}

// NewVictim builds a direct-mapped main cache with cfg plus a
// fully-associative victim buffer of victimLines entries.
func NewVictim(cfg Config, victimLines int) (*VictimCache, error) {
	if cfg.Ways != 1 {
		return nil, fmt.Errorf("cache: victim buffer backs a direct-mapped cache, got %d ways", cfg.Ways)
	}
	if victimLines <= 0 {
		return nil, fmt.Errorf("cache: victim buffer needs > 0 lines")
	}
	main, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &VictimCache{main: main, victims: make([]victimLine, victimLines)}, nil
}

// AccessBlock simulates one access; reports whether it missed in BOTH
// the main cache and the victim buffer (i.e. went to memory).
func (v *VictimCache) AccessBlock(block uint64) bool {
	v.clock++
	v.stats.Accesses++
	m := v.main
	set := m.idx.Apply(gf2.Vec(block))
	evictedBlock, evictedValid := m.blocks[set], m.state[set]&valid != 0
	if evictedValid && evictedBlock == block {
		return false
	}
	// Main miss: the block takes the main line (clean), and the victim
	// buffer, keyed by block address like the main lines, is probed.
	m.blocks[set], m.state[set] = block, valid
	for i := range v.victims {
		if v.victims[i].valid && v.victims[i].block == block {
			// Victim hit: swap with the main line.
			v.swaps++
			if evictedValid {
				v.victims[i] = victimLine{block: evictedBlock, valid: true, used: v.clock}
			} else {
				v.victims[i].valid = false
			}
			return false
		}
	}
	// Full miss: push the evicted line into the buffer (LRU).
	v.stats.Misses++
	if evictedValid {
		lru := 0
		for i := range v.victims {
			if !v.victims[i].valid {
				lru = i
				break
			}
			if v.victims[i].used < v.victims[lru].used {
				lru = i
			}
		}
		v.victims[lru] = victimLine{block: evictedBlock, valid: true, used: v.clock}
	}
	return true
}

// Stats returns accumulated statistics (misses = memory accesses).
func (v *VictimCache) Stats() Stats { return v.stats }

// Swaps returns how many misses the victim buffer absorbed.
func (v *VictimCache) Swaps() uint64 { return v.swaps }
