package cache

import "fmt"

// Hierarchy composes two cache levels: every L1 miss probes L2, every
// L2 miss goes to memory. It answers a question the single-level paper
// leaves open: with a second level behind it, application-specific L1
// indexing still pays, because an L1 conflict miss costs an L2 access
// even when it hits there.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
}

// NewHierarchy wires two configured caches together. The levels keep
// independent statistics (inclusive behaviour: L2 sees only L1 misses;
// no back-invalidation, as in a simple embedded design).
func NewHierarchy(l1, l2 Config) (*Hierarchy, error) {
	c1, err := New(l1)
	if err != nil {
		return nil, fmt.Errorf("cache: L1: %w", err)
	}
	c2, err := New(l2)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %w", err)
	}
	return &Hierarchy{L1: c1, L2: c2}, nil
}

// Access simulates one access by byte address; the return values
// report where it was satisfied.
func (h *Hierarchy) Access(addr uint64, isWrite bool) (l1Miss, l2Miss bool) {
	block1 := addr / uint64(h.L1.cfg.BlockBytes)
	if !h.L1.access(block1, isWrite) {
		return false, false
	}
	block2 := addr / uint64(h.L2.cfg.BlockBytes)
	return true, h.L2.access(block2, false)
}

// AMAT returns the average memory access time in cycles for the given
// hit latencies and memory penalty, from the accumulated statistics.
func (h *Hierarchy) AMAT(l1Lat, l2Lat, memLat float64) float64 {
	s1 := h.L1.Stats()
	s2 := h.L2.Stats()
	if s1.Accesses == 0 {
		return 0
	}
	m1 := float64(s1.Misses) / float64(s1.Accesses)
	m2 := 0.0
	if s2.Accesses > 0 {
		m2 = float64(s2.Misses) / float64(s2.Accesses)
	}
	return l1Lat + m1*(l2Lat+m2*memLat)
}
