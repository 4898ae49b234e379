package search_test

import (
	"context"
	"fmt"

	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/search"
)

// Example_construct runs the paper's hill-climbing construction on a
// stride profile for each function family.
func Example_construct() {
	var blocks []uint64
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 32; i++ {
			blocks = append(blocks, i*64) // stride = set count
		}
	}
	p := profile.Build(blocks, 12, 64)
	for _, fam := range []hash.Family{
		hash.FamilyBitSelect, hash.FamilyPermutation, hash.FamilyGeneralXOR,
	} {
		res, err := search.ConstructCtx(context.Background(), p, 6, search.Options{Family: fam, MaxInputs: 2})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-18s estimate %d (baseline %d)\n", fam, res.Estimated, res.Baseline)
	}
	// Output:
	// bit-select         estimate 0 (baseline 8928)
	// permutation-based  estimate 0 (baseline 8928)
	// general-XOR        estimate 0 (baseline 8928)
}
