package cache_test

import (
	"context"
	"fmt"

	"xoridx/internal/cache"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
)

// Example_xorIndexing contrasts modulo and XOR indexing on the classic
// cache-size-stride pattern.
func Example_xorIndexing() {
	var tr trace.Trace
	for rep := 0; rep < 5; rep++ {
		for i := uint64(0); i < 32; i++ {
			tr.Append(i*1024, trace.Read) // all map to set 0 under modulo
		}
	}
	f, _ := hash.PermutationBased(16, 8, [][]int{
		{8}, {9}, {10}, {11}, {12}, {}, {}, {},
	})
	// One pass of the trace through both caches.
	st, _ := cache.Simulate(context.Background(), &tr,
		cache.Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1},
		cache.Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1, Index: f.Matrix()})
	fmt.Println("modulo misses:", st[0].Misses)
	fmt.Println("XOR misses:   ", st[1].Misses)
	// Output:
	// modulo misses: 160
	// XOR misses:    32
}
