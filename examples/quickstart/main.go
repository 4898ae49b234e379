// Quickstart: eliminate the conflict misses of a strided access
// pattern with an application-specific XOR index function.
//
// A direct-mapped cache indexed by the low address bits thrashes when a
// program walks memory with a stride equal to the cache size: every
// element lands in the same set. This example profiles such a trace,
// constructs a permutation-based 2-input XOR function with the paper's
// algorithm, and shows the misses collapsing to the compulsory minimum.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
)

func main() {
	// A 4 KB direct-mapped cache with 4-byte blocks (the paper's
	// geometry) and a matrix-column walk: 64 rows of a matrix whose row
	// pitch equals the cache size, repeated 50 times.
	const cacheBytes = 4096
	tr := &trace.Trace{Name: "column-walk"}
	for rep := 0; rep < 50; rep++ {
		for row := uint64(0); row < 64; row++ {
			tr.Append(row*cacheBytes, trace.Read) // same set every time
		}
		tr.Ops += 64 * 6
	}

	res, err := core.Tune(context.Background(), tr, core.Config{
		CacheBytes: cacheBytes,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2, // cheap reconfigurable hardware (paper §5)
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("selected index function:")
	fmt.Println(core.DescribeFunction(res.Func))
	fmt.Println()
	fmt.Printf("conventional indexing: %5d misses (%.1f%% of accesses)\n",
		res.Baseline.Misses, 100*res.Baseline.MissRate())
	fmt.Printf("XOR indexing:          %5d misses (%.1f%% of accesses)\n",
		res.Optimized.Misses, 100*res.Optimized.MissRate())
	fmt.Printf("misses removed:        %5.1f%%\n", 100*res.MissesRemoved())

	if res.Optimized.Misses != 64 {
		log.Fatalf("expected only the 64 compulsory misses, got %d", res.Optimized.Misses)
	}
	fmt.Println("\nonly the 64 compulsory misses remain — every conflict miss is gone.")
}
