package profile

// Error-path tests for Builder.Add and Profile.Merge: the merge
// preconditions guard the slice join (every slice must share n and
// the capacity filter), so their rejections are load-bearing.

import (
	"strings"
	"testing"
)

func TestMergeRejectsMismatchedN(t *testing.T) {
	a := Build([]uint64{1, 2, 1}, 8, 4)
	b := Build([]uint64{1, 2, 1}, 9, 4)
	err := a.Merge(b)
	if err == nil || !strings.Contains(err.Error(), "cannot merge n=9") {
		t.Fatalf("err = %v, want mismatched-n rejection", err)
	}
}

func TestMergeRejectsMismatchedCapacity(t *testing.T) {
	a := Build([]uint64{1, 2, 1}, 8, 4)
	b := Build([]uint64{1, 2, 1}, 8, 8)
	err := a.Merge(b)
	if err == nil || !strings.Contains(err.Error(), "capacity filters differ") {
		t.Fatalf("err = %v, want capacity-filter rejection", err)
	}
}

func TestMergeRejectsMismatchedTableSize(t *testing.T) {
	// A hand-constructed profile can lie about N; the defensive table
	// length check must still refuse before indexing out of bounds.
	a := Build([]uint64{1, 2, 1}, 8, 4)
	b := &Profile{N: 8, CacheBlocks: 4, Table: make([]uint64, 16)}
	err := a.Merge(b)
	if err == nil || !strings.Contains(err.Error(), "table sizes differ") {
		t.Fatalf("err = %v, want table-size rejection", err)
	}
}

func TestMergeEmptyProfileIsNoOp(t *testing.T) {
	blocks := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 1}
	p := Build(blocks, 8, 4)
	want := Build(blocks, 8, 4)
	empty := NewBuilder(8, 4).Finish()
	if err := p.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(p, want); d != "" {
		t.Fatalf("merging an empty profile changed the receiver: %s", d)
	}
}

func TestMergeIntoEmptyEqualsCopy(t *testing.T) {
	blocks := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	src := Build(blocks, 8, 4)
	dst := NewBuilder(8, 4).Finish()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(dst, src); d != "" {
		t.Fatalf("empty.Merge(p) != p: %s", d)
	}
}

func TestBuilderPanicsAfterFinish(t *testing.T) {
	bd := NewBuilder(8, 4)
	bd.Add(1)
	bd.Finish()
	defer func() {
		if recover() == nil {
			t.Error("Add after Finish did not panic")
		}
	}()
	bd.Add(1)
}

func TestBuilderWarmMatchesPrefixReplay(t *testing.T) {
	// Replaying a prefix into the gate alone, then Adding the suffix,
	// classifies the suffix accesses exactly as a full sequential pass
	// does (the histogram contains only the suffix contributions).
	blocks := []uint64{1, 2, 3, 1, 2, 3, 4, 1, 2}
	cut := 4
	full := Build(blocks, 8, 8)

	bd := NewBuilder(8, 8)
	for _, b := range blocks[:cut] {
		touchGate(bd.stack, b)
	}
	for _, b := range blocks[cut:] {
		bd.Add(b)
	}
	part := bd.Finish()

	prefixOnly := Build(blocks[:cut], 8, 8)
	if part.TotalPairs != full.TotalPairs-prefixOnly.TotalPairs {
		t.Fatalf("suffix pairs = %d, want %d", part.TotalPairs, full.TotalPairs-prefixOnly.TotalPairs)
	}
	for v := range full.Table {
		if part.Table[v] != full.Table[v]-prefixOnly.Table[v] {
			t.Fatalf("Table[%#x]: suffix %d, full %d, prefix %d",
				v, part.Table[v], full.Table[v], prefixOnly.Table[v])
		}
	}
}
