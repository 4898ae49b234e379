package xoridx

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/workloads"
)

// updateGolden rewrites testdata/golden.json from the current code.
// A rewrite moves reproduced paper numbers, so it needs a CHANGES.md
// line explaining the shift.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenCell is the end-to-end fingerprint of one tuned kernel: the
// null space the search chose, its Eq. 4 estimate, and the exact miss
// counts of conventional and tuned indexing.
type goldenCell struct {
	Kernel    string `json:"kernel"`
	NullSpace string `json:"null_space"`
	Estimated uint64 `json:"estimated"`
	Baseline  uint64 `json:"baseline_misses"`
	Optimized uint64 `json:"optimized_misses"`
}

// goldenCells tunes the 28 Media, PowerStone and Extra data kernels at
// scale 1 with a 4 KB direct-mapped cache, n = 16 and general XOR.
func goldenCells(t *testing.T, workers int) []goldenCell {
	t.Helper()
	cfg := core.Config{CacheBytes: 4096, BlockBytes: 4, AddrBits: 16,
		Family: hash.FamilyGeneralXOR, Workers: workers}
	var cells []goldenCell
	for _, suite := range [][]workloads.Workload{workloads.MediaSuite(), workloads.PowerStoneSuite(), workloads.ExtraSuite()} {
		for _, w := range suite {
			res, err := core.Tune(context.Background(), w.Data(1), cfg, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			cells = append(cells, goldenCell{
				Kernel:    w.Name,
				NullSpace: res.Search.Matrix.NullSpace().Key(),
				Estimated: res.Search.Estimated,
				Baseline:  res.Baseline.Misses,
				Optimized: res.Optimized.Misses,
			})
		}
	}
	return cells
}

// TestGoldenFingerprint pins the reproduced general-XOR results end to
// end: every worker count must rebuild testdata/golden.json exactly.
func TestGoldenFingerprint(t *testing.T) {
	if *updateGolden {
		data, err := json.MarshalIndent(goldenCells(t, 1), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		got := goldenCells(t, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d cells, golden has %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: cell %d drifted:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}
