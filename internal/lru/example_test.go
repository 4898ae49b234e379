package lru_test

import (
	"fmt"

	"xoridx/internal/lru"
)

// Example_stackDistance computes reuse distances, the quantity the
// paper's capacity filter is built on: after Touch the blocks accessed
// since b's previous access are the walk from just below the new top
// down to stop.
func Example_stackDistance() {
	s := lru.NewStack()
	for _, b := range []uint64{1, 2, 3, 1, 1, 3} {
		stop, g := s.Touch(b, 0)
		d := -1
		if g != lru.GateCold {
			nodes, top := s.Raw()
			d = 0
			for i := nodes[top].Next; i != stop; i = nodes[i].Next {
				d++
			}
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
