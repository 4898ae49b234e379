package profile

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xoridx/internal/xerr"
)

// analyze runs AnalyzeConflicts over the blocks at block size 1.
func analyze(t *testing.T, blocks []uint64, n, cacheBlocks, topVectors, topPairs int) *Analysis {
	t.Helper()
	a, err := AnalyzeConflicts(context.Background(), blockTrace(blocks), 1, n, cacheBlocks, topVectors, topPairs)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(a.Profile, Build(blocks, n, cacheBlocks)); d != "" {
		t.Fatalf("analysis profile differs from Build: %s", d)
	}
	return a
}

func TestAnalyzeConflictsFindsThePair(t *testing.T) {
	// Two structures at 0x0 and 0x4000 bytes thrash; a third stream is
	// conflict-free noise.
	var blocks []uint64
	for i := 0; i < 100; i++ {
		blocks = append(blocks, 0x10, 0x10^0x400) // hot pair
		blocks = append(blocks, uint64(0x2000+i)) // streaming noise
	}
	a := analyze(t, blocks, 16, 1024, 4, 10)
	if len(a.HotPairs) == 0 {
		t.Fatal("no hot pairs found")
	}
	top := a.HotPairs[0]
	if top.BlockA != 0x10 || top.BlockB != 0x410 {
		t.Fatalf("top pair = %#x/%#x, want 0x10/0x410", top.BlockA, top.BlockB)
	}
	if top.Vector != 0x400 {
		t.Fatalf("vector = %#x", top.Vector)
	}
	if top.Count < 190 {
		t.Fatalf("count = %d, want ~199", top.Count)
	}
	// Pair counts must not exceed the vector's histogram count.
	if top.Count > a.Profile.Table[top.Vector] {
		t.Fatalf("pair count %d exceeds vector count %d", top.Count, a.Profile.Table[top.Vector])
	}
}

func TestAnalyzeRollsBackCapacityPairs(t *testing.T) {
	// A sweep larger than the capacity filter: everything is capacity,
	// so no pairs survive.
	var blocks []uint64
	for r := 0; r < 3; r++ {
		for b := uint64(0); b < 64; b++ {
			blocks = append(blocks, b)
		}
	}
	a := analyze(t, blocks, 12, 16, 8, 10)
	if len(a.HotPairs) != 0 {
		t.Fatalf("capacity-only trace produced pairs: %+v", a.HotPairs)
	}
}

func TestAnalysisReport(t *testing.T) {
	var blocks []uint64
	for i := 0; i < 50; i++ {
		blocks = append(blocks, 0, 0x100)
	}
	a := analyze(t, blocks, 16, 256, 4, 5)
	rep := a.Report(4)
	for _, frag := range []string{
		"hottest conflict vectors",
		"hottest conflicting address pairs",
		"0x00000400", // block 0x100 * 4 bytes
		"pad/realign",
	} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
}

func TestAnalyzeTopPairsTruncates(t *testing.T) {
	var blocks []uint64
	for i := uint64(0); i < 8; i++ {
		for r := 0; r < 20; r++ {
			blocks = append(blocks, i, i^0x40)
		}
	}
	a := analyze(t, blocks, 12, 64, 2, 3)
	if len(a.HotPairs) > 3 {
		t.Fatalf("topPairs not honoured: %d", len(a.HotPairs))
	}
}

func TestAnalyzeConflictsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := AnalyzeConflicts(ctx, blockTrace(syntheticBlocks(100)), 1, 12, 64, 4, 4)
	if a != nil || !errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("canceled analysis returned %v, %v; want nil and a wrapped ErrCanceled", a, err)
	}
}
