package core_test

import (
	"context"
	"fmt"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
)

// ExampleTuneCtx demonstrates the whole pipeline on a thrashing stride.
func ExampleTuneCtx() {
	tr := &trace.Trace{Name: "stride"}
	for rep := 0; rep < 20; rep++ {
		for i := uint64(0); i < 16; i++ {
			tr.Append(i*1024, trace.Read) // stride == cache size
		}
	}
	res, err := core.TuneCtx(context.Background(), tr, core.Config{
		CacheBytes: 1024,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2,
	}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline %d -> optimized %d misses\n", res.Baseline.Misses, res.Optimized.Misses)
	fmt.Printf("permutation-based: %v, fan-in: %d\n",
		res.Func.Matrix().IsPermutationBased(), res.Func.Matrix().MaxInputs())
	// Output:
	// baseline 320 -> optimized 16 misses
	// permutation-based: true, fan-in: 2
}

// ExampleBuildProfileCtx shows profile reuse across several searches.
func ExampleBuildProfileCtx() {
	tr := &trace.Trace{Name: "pair"}
	for i := 0; i < 100; i++ {
		tr.Append(0, trace.Read)
		tr.Append(1024, trace.Read)
	}
	cfg := core.Config{CacheBytes: 1024}
	ctx := context.Background()
	p, err := core.BuildProfileCtx(ctx, tr, cfg)
	if err != nil {
		panic(err)
	}
	for _, maxIn := range []int{2, 0} {
		c := cfg
		c.Family = hash.FamilyPermutation
		c.MaxInputs = maxIn
		res, err := core.TuneProfiledCtx(ctx, tr, p, c, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("maxInputs=%d: %.0f%% removed\n", maxIn, 100*res.MissesRemoved())
	}
	// Output:
	// maxInputs=2: 99% removed
	// maxInputs=0: 99% removed
}
