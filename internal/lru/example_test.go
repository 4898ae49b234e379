package lru_test

import (
	"fmt"
	"slices"

	"xoridx/internal/lru"
)

// Example_stackDistance computes reuse distances, the quantity the
// paper's capacity filter is built on: a block re-touched within the
// window is found by walking the window from the front, and its index
// there is the number of blocks accessed since its previous access.
func Example_stackDistance() {
	s := lru.NewStack(8, 0)
	for _, b := range []uint64{1, 2, 3, 1, 1, 3} {
		d := -1
		if g, window := s.Touch(b); g == lru.GateWithin {
			d = slices.Index(window, b)
			s.Lift(d)
		}
		fmt.Print(d, " ")
	}
	fmt.Println()
	// Output:
	// -1 -1 -1 2 0 1
}

// Example_faMisses counts fully-associative LRU misses: a first touch
// or a reuse distance of at least the capacity.
func Example_faMisses() {
	blocks := []uint64{1, 2, 3, 4, 1, 2, 3, 4}
	fmt.Println("capacity 4:", lru.FAMisses(blocks, 4))
	fmt.Println("capacity 3:", lru.FAMisses(blocks, 3))
	// Output:
	// capacity 4: 4
	// capacity 3: 8
}
