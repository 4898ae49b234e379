// Hardware exploration — the paper's §4–§5 analysis made executable.
//
// The example builds the four reconfigurable index networks of Fig. 2
// as gate-level netlists, compares their switch counts (Table 1),
// programs the permutation-based network with a function produced by
// the optimizer, and proves by exhaustive evaluation that the
// configured hardware computes exactly the optimizer's function.
//
// Run: go run ./examples/hwexplore
package main

import (
	"context"
	"fmt"
	"log"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/hwcost"
	"xoridx/internal/netlist"
	"xoridx/internal/trace"
)

func main() {
	const n, m = 16, 8 // 1 KB cache, 4-byte blocks

	// 1. The cost trade-off (paper Table 1) from executable netlists.
	fmt.Println("reconfigurable index networks, n=16, m=8:")
	nets := []*netlist.Netlist{
		netlist.NewBitSelectNaive(n, m),
		netlist.NewBitSelectOptimized(n, m),
		netlist.NewGeneralXOR2(n, m),
		netlist.NewPermutationXOR2(n, m),
	}
	styles := []hwcost.Style{
		hwcost.BitSelectNaive, hwcost.BitSelectOptimized,
		hwcost.GeneralXOR2, hwcost.PermutationXOR2,
	}
	for i, nl := range nets {
		est := hwcost.Estimate(styles[i], n, m)
		fmt.Printf("  %-22s %3d switches (netlist) = %3d (formula), %3d config bits, %2d XOR gates, %4d wire crossings\n",
			nl.Style, nl.SwitchCount(), est.Switches, nl.ConfigBits(), nl.XORGateCount(), est.WiresCrossed)
		if nl.SwitchCount() != est.Switches {
			log.Fatalf("netlist and closed-form model disagree for %s", nl.Style)
		}
	}

	// 2. Construct an application-specific function for a thrashing
	// trace (every access maps to set 0 under modulo indexing).
	tr := &trace.Trace{Name: "stride"}
	for rep := 0; rep < 40; rep++ {
		for i := uint64(0); i < 32; i++ {
			tr.Append(i*1024, trace.Read)
		}
	}
	res, err := core.Tune(context.Background(), tr, core.Config{
		CacheBytes: 1024,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer selected: %s\n", res.Func)
	fmt.Printf("misses: %d -> %d (%.1f%% removed)\n",
		res.Baseline.Misses, res.Optimized.Misses, 100*res.MissesRemoved())

	// 3. Program the cheap Fig. 2b hardware with it.
	perm := netlist.NewPermutationXOR2(n, m)
	if err := perm.Configure(res.Func.Matrix()); err != nil {
		log.Fatal(err)
	}
	bits := perm.Config()
	on := 0
	for _, b := range bits {
		if b {
			on++
		}
	}
	fmt.Printf("\nconfiguration bitstream: %d bits, %d switches closed\n", len(bits), on)

	// 4. Exhaustive equivalence: the silicon and the matrix agree on
	// index AND tag for all 2^16 block addresses.
	for a := uint64(0); a < 1<<n; a++ {
		idx, tag := perm.Eval(a)
		if idx != res.Func.Index(a) || tag != res.Func.Tag(a) {
			log.Fatalf("hardware/model mismatch at %#x", a)
		}
	}
	fmt.Println("exhaustive check: netlist matches the GF(2) model on all 65536 addresses.")
}
