package gf2

import "math/bits"

// LinearMap is a Matrix tabulated for fast evaluation by the method of
// four Russians: one 256-entry table per byte of the N input bits, where
// entry v of table t is the XOR of the rows of H that the bits of v
// select, read as address bits 8t..8t+7. Since a·H is linear in a, Apply
// XORs one entry per input byte: ⌈N/8⌉ lookups in place of
// Matrix.Apply's one popcount per column. Each table takes 2 KB.
type LinearMap struct {
	tabs [][256]Vec
}

// NewLinearMap tabulates h. Address bits at or above h.N select no row,
// so Apply(a) equals h.Apply(a & Mask(h.N)) for every a.
func NewLinearMap(h Matrix) LinearMap {
	tabs := make([][256]Vec, (h.N+7)/8)
	for t := range tabs {
		tab := &tabs[t]
		for v := 1; v < 256; v++ {
			// Entry v is the entry without v's lowest bit plus that bit's row.
			tab[v] = tab[v&(v-1)]
			if r := 8*t + bits.TrailingZeros(uint(v)); r < h.N {
				tab[v] ^= h.Row(r)
			}
		}
	}
	return LinearMap{tabs: tabs}
}

// Apply computes a·H for the tabulated H, ignoring address bits at or
// above N.
func (l LinearMap) Apply(a Vec) Vec {
	var s Vec
	for t := range l.tabs {
		s ^= l.tabs[t][uint8(a)]
		a >>= 8
	}
	return s
}
