// Data-cache tuning across an embedded benchmark suite — the paper's
// second experiment (Table 2, data rows) on a subset of workloads.
//
// For each benchmark the example profiles the data trace once, then
// constructs permutation-based XOR functions with 2-input and
// unlimited XOR gates plus a general (unrestricted) XOR function, and
// validates all of them by exact cache simulation. It also demonstrates
// the §6 fallback guard: with NoFallback unset, a heuristic misfire can
// never leave you worse than conventional indexing.
//
// Run: go run ./examples/dcache_tuning
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
	const cacheBytes = 4 * 1024 // the paper's middle size
	benches := []string{"fft", "adpcm_dec", "susan", "mpeg2_dec"}

	fmt.Printf("4 KB direct-mapped data cache, 4-byte blocks, n=16\n\n")
	fmt.Printf("%-10s %12s | %8s %8s %8s | %s\n",
		"benchmark", "base misses", "perm-2", "perm-16", "general", "guard")
	for _, name := range benches {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tr := w.Data(1)
		cfg := core.Config{CacheBytes: cacheBytes} // fallback guard ON
		p, err := core.BuildProfileCtx(context.Background(), tr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var removed [3]float64
		var guard string
		for i, fc := range []struct {
			family hash.Family
			maxIn  int
		}{
			{hash.FamilyPermutation, 2},
			{hash.FamilyPermutation, 0},
			{hash.FamilyGeneralXOR, 0},
		} {
			c := cfg
			c.Family = fc.family
			c.MaxInputs = fc.maxIn
			res, err := core.TuneProfiledCtx(context.Background(), tr, p, c, nil)
			if err != nil {
				log.Fatal(err)
			}
			removed[i] = 100 * res.MissesRemoved()
			if res.UsedFallback {
				guard = "fallback fired"
			}
			if i == 0 {
				fmt.Printf("%-10s %12d |", name, res.Baseline.Misses)
			}
		}
		fmt.Printf(" %7.1f%% %7.1f%% %7.1f%% | %s\n", removed[0], removed[1], removed[2], guard)
	}

	fmt.Println("\nperm-2 tracks the unrestricted families closely (paper §4/§6),")
	fmt.Println("while needing the cheapest reconfigurable hardware of Table 1.")
}
