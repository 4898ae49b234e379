package cache

import (
	"fmt"

	"xoridx/internal/hash"
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
	set := v.main.idx.Index(block)
	tag := hash.TagWithHighBits(v.main.idx, block)
	ln := &v.main.sets[set][0]
	if ln.valid && ln.tag == tag {
		ln.used = v.clock
		return false
	}
	// Main miss: probe the victim buffer.
	// The buffer is keyed by block address; the main line remembers its
	// block so eviction does not need to invert the hash function.
	evictedBlock, evictedValid := uint64(0), ln.valid
	if ln.valid {
		evictedBlock = v.blockOf(set)
	}
	for i := range v.victims {
		if v.victims[i].valid && v.victims[i].block == block {
			// Victim hit: swap with the main line.
			v.swaps++
			if evictedValid {
				v.victims[i] = victimLine{block: evictedBlock, valid: true, used: v.clock}
			} else {
				v.victims[i].valid = false
			}
			v.fill(set, tag, block)
			return false
		}
	}
	// Full miss: fill main, push the evicted line into the buffer (LRU).
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
	v.fill(set, tag, block)
	return true
}

func (v *VictimCache) blockOf(set uint64) uint64 {
	return v.main.sets[set][0].block
}

func (v *VictimCache) fill(set uint64, tag, block uint64) {
	v.main.sets[set][0] = line{tag: tag, valid: true, used: v.clock, block: block}
}

// Stats returns accumulated statistics (misses = memory accesses).
func (v *VictimCache) Stats() Stats { return v.stats }

// Swaps returns how many misses the victim buffer absorbed.
func (v *VictimCache) Swaps() uint64 { return v.swaps }
