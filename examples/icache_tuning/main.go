// Instruction-cache tuning — the paper's Table 2 instruction rows for
// one benchmark, shown end to end.
//
// MiBench rijndael's unrolled cipher is larger than a 4 KB cache (its
// small-cache misses are capacity misses no index function can fix),
// but its key-mix helper happens to be linked 16 KB + 256 bytes after
// the cipher body, so in a 16 KB cache the two thrash each other on
// every call. The constructed XOR function separates them and removes
// essentially all 16 KB misses — the paper's signature instruction-
// cache result.
//
// Run: go run ./examples/icache_tuning
package main

import (
	"context"
	"fmt"
	"log"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/workloads"
)

func main() {
	w, err := workloads.ByName("rijndael")
	if err != nil {
		log.Fatal(err)
	}
	tr := w.Instr(1)
	stats := tr.ComputeStats()
	fmt.Printf("rijndael instruction trace: %d fetches over [%#x, %#x]\n\n",
		stats.Fetches, stats.MinAddr, stats.MaxAddr)

	fmt.Printf("%8s | %12s %12s %9s\n", "cache", "base misses", "XOR misses", "removed")
	for _, kb := range []int{1, 4, 16} {
		res, err := core.TuneCtx(context.Background(), tr, core.Config{
			CacheBytes: kb * 1024,
			Family:     hash.FamilyPermutation,
			MaxInputs:  2,
			NoFallback: true, // show the raw optimizer output
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d KB | %12d %12d %8.1f%%\n",
			kb, res.Baseline.Misses, res.Optimized.Misses, 100*res.MissesRemoved())
		if kb == 16 {
			fmt.Println("\nselected 16 KB function:")
			fmt.Println(core.DescribeFunction(res.Func))
		}
	}
	fmt.Println("\nat 1/4 KB the unrolled cipher sweeps the whole cache (capacity -> ~0% removable);")
	fmt.Println("at 16 KB the only misses are the mod-16KB alias, which the XOR function eliminates.")
}
