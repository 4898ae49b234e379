// Conflict diagnosis and the two possible fixes.
//
// A DSP-style loop streams through two page-aligned buffers that alias
// in a 4 KB direct-mapped cache. The example (1) diagnoses the problem
// with the conflict analyzer — hot conflict vectors traced back to the
// concrete address pairs — then fixes it both ways and compares:
//
//   - in software, by padding one buffer (what a programmer does after
//     reading the diagnosis), and
//   - in hardware, with the paper's application-specific XOR function
//     (no source change at all).
//
// Run: go run ./examples/analyze
package main

import (
	"context"
	"fmt"
	"log"

	"xoridx/internal/cache"
	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/trace"
)

// dspLoop generates the kernel's trace with the given padding between
// the two buffers (0 = the aliasing layout the linker produced).
func dspLoop(padBytes uint64) *trace.Trace {
	const samples = 480 // two ~2 KB buffers: together they FIT a 4 KB cache
	baseA := uint64(0x10000)
	baseB := uint64(0x14000) + padBytes // 16 KB later: aliases mod 4 KB
	tr := &trace.Trace{Name: "dsp-loop"}
	// a[i] *= b[i]: load a, load b, store a. Both buffers fit the cache
	// together, so after warm-up nothing should miss — except that with
	// the aliasing layout a[i] and b[i] fight over one set, a pure,
	// fixable conflict. The padded layout interleaves them peacefully.
	for rep := 0; rep < 40; rep++ {
		for i := uint64(0); i < samples; i++ {
			tr.Append(baseA+4*i, trace.Read)  // load a[i]
			tr.Append(baseB+4*i, trace.Read)  // load b[i]
			tr.Append(baseA+4*i, trace.Write) // store a[i]
		}
		tr.Ops += samples * 8
	}
	return tr
}

func misses(tr *trace.Trace, f hash.Func) uint64 {
	st, err := cache.Simulate(context.Background(), tr, cache.Config{SizeBytes: 4096, BlockBytes: 4, Ways: 1, Index: f})
	if err != nil {
		log.Fatal(err)
	}
	return st[0].Misses
}

func main() {
	broken := dspLoop(0)

	// 1. Diagnose.
	fmt.Println("=== diagnosis ===")
	a, err := profile.AnalyzeConflicts(context.Background(), broken, 4, 16, 1024, 4, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(a.Report(4))

	conv := hash.Modulo(16, 10)
	base := misses(broken, conv)

	// 2a. Software fix: pad buffer B past the aliasing offset.
	padded := dspLoop(2048)
	sw := misses(padded, conv)

	// 2b. Hardware fix: tune a XOR function, binary untouched.
	res, err := core.Tune(context.Background(), broken, core.Config{
		CacheBytes: 4096,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	hw := res.Optimized.Misses

	fmt.Println("\n=== fixes (4 KB direct-mapped, total misses) ===")
	fmt.Printf("%-28s %8d\n", "as linked (modulo index):", base)
	fmt.Printf("%-28s %8d\n", "software fix (2 KB pad):", sw)
	fmt.Printf("%-28s %8d  (%s)\n", "hardware fix (XOR index):", hw, res.Func)
	if hw >= base || sw >= base {
		log.Fatal("a fix failed to fix")
	}
	fmt.Println("\nboth fixes eliminate the conflict; the XOR index needs no recompilation")
	fmt.Println("and keeps working when the next ASLR/linker change moves the buffers.")
}
