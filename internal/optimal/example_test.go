package optimal_test

import (
	"context"
	"fmt"

	"xoridx/internal/optimal"
	"xoridx/internal/profile"
)

// Example_exactBitSelect finds the truly optimal bit-selecting function
// (Patel et al.) for a stride trace.
func Example_exactBitSelect() {
	var blocks []uint64
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 16; i++ {
			blocks = append(blocks, i*16) // bits 4..7 carry everything
		}
	}
	res, err := optimal.ExactBitSelect(context.Background(), blocks, 8, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("best mask %08b, %d misses, %d candidates\n", res.Mask, res.Misses, res.Evaluated)
	// Output:
	// best mask 11110000, 16 misses, 70 candidates
}

// Example_exhaustiveXOR finds the globally estimate-optimal XOR
// function for a small design space.
func Example_exhaustiveXOR() {
	var blocks []uint64
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 16; i++ {
			blocks = append(blocks, i*16)
		}
	}
	p := profile.Build(blocks, 8, 16)
	res, err := optimal.ExhaustiveXOR(context.Background(), p, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("optimal estimate %d over %d null spaces\n", res.Estimated, res.Evaluated)
	// Output:
	// optimal estimate 0 over 200787 null spaces
}
