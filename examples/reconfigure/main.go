// Reconfiguration under multiprogramming — the scenario the paper's
// reconfigurable hardware exists for.
//
// Two applications (fft and adpcm_dec) time-share a 4 KB data cache.
// Three policies are compared as the context-switch quantum grows:
//
//   - conventional modulo indexing,
//   - one compromise XOR function tuned on the merged trace,
//   - per-application XOR functions, reprogramming the Fig. 2b selector
//     network (and flushing the cache, as hardware must) at each switch.
//
// The crossover is the point of the experiment: with frequent switches
// the flush cost makes the fixed compromise function the better deal;
// with realistic quanta the per-application functions win. The example
// also prints the two configuration bitstreams the OS would write on a
// context switch.
//
// Run: go run ./examples/reconfigure
package main

import (
	"context"
	"fmt"
	"log"

	"xoridx/internal/core"
	"xoridx/internal/experiments"
	"xoridx/internal/hash"
	"xoridx/internal/netlist"
	"xoridx/internal/workloads"
)

func main() {
	const benchA, benchB = "fft", "adpcm_dec"
	rows, err := experiments.PhaseReconfigurationCtx(context.Background(), experiments.Options{}, benchA, benchB, 4, 1,
		[]int{100, 1000, 10000, 100000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("time-shared 4 KB data cache: %s + %s (total misses)\n\n", benchA, benchB)
	fmt.Printf("%10s %9s %12s %12s %12s   %s\n",
		"quantum", "switches", "modulo", "compromise", "reconfig", "winner")
	for _, r := range rows {
		winner := "compromise"
		if r.Reconfig < r.Compromise {
			winner = "reconfig"
		}
		fmt.Printf("%10d %9d %12d %12d %12d   %s\n",
			r.Quantum, r.Switches, r.Modulo, r.Compromise, r.Reconfig, winner)
	}

	// The bitstreams an OS scheduler would keep per process and write
	// into the selector network's configuration cells on a switch.
	fmt.Printf("\nper-application configuration bitstreams (Fig. 2b network, 16->12):\n")
	for _, name := range []string{benchA, benchB} {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.TuneCtx(context.Background(), w.Data(1), core.Config{
			CacheBytes: 4096,
			Family:     hash.FamilyPermutation,
			MaxInputs:  2,
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		nl := netlist.NewPermutationXOR2(16, 10)
		if err := nl.Configure(res.Func.Matrix()); err != nil {
			log.Fatal(err)
		}
		bits := nl.Config()
		fmt.Printf("  %-10s %3d bits: ", name, len(bits))
		for _, b := range bits {
			if b {
				fmt.Print("1")
			} else {
				fmt.Print("0")
			}
		}
		fmt.Println()
	}
	fmt.Println("\nswapping 70 configuration bits retargets the cache to the incoming application.")
}
