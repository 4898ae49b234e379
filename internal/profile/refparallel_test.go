package profile

// The pre-rebuild sharded builder, retained as a test-only reference:
// each shard replays a warmup window of cacheBlocks+1 distinct blocks
// preceding it (stack state only, no counting), tracks per-access
// first-touch and seen sets, and a map-based merge pass repairs the
// compulsory/capacity split at boundaries. It was proven exact by the
// earlier differential batteries, which makes it a trustworthy third
// implementation to race against the slice join that replaced it (the
// two share the reconciliation *problem* but no reconciliation code).
// Kept synchronous — the goroutine fan-out is the production builder's
// concern, not the reference's.

import (
	"math/rand"
	"testing"
)

// refWarmStart is the old warmStart: the start index of the shortest
// window ending just before start that contains `distinct` distinct
// blocks, or 0 when the whole prefix holds fewer.
func refWarmStart(blocks []uint64, start, distinct int, mask uint64) int {
	seen := make(map[uint64]struct{}, distinct)
	i := start
	for i > 0 && len(seen) < distinct {
		i--
		seen[blocks[i]&mask] = struct{}{}
	}
	return i
}

// refBuildParallel is the old BuildParallel at its exact (default)
// overlap of cacheBlocks+1 distinct blocks, run shard by shard.
func refBuildParallel(blocks []uint64, n, cacheBlocks, workers int) *Profile {
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers < 1 {
		workers = 1
	}
	mask := uint64(1)<<uint(n) - 1
	out := NewBuilder(n, cacheBlocks).Finish()
	seen := make(map[uint64]struct{})
	for w := 0; w < workers; w++ {
		start := w * len(blocks) / workers
		end := (w + 1) * len(blocks) / workers
		ws := refWarmStart(blocks, start, cacheBlocks+1, mask)
		bd := NewBuilder(n, cacheBlocks)
		for _, b := range blocks[ws:start] {
			touchGate(bd.stack, b&mask)
		}
		var firstTouch []uint64
		shardSeen := make(map[uint64]struct{})
		for _, raw := range blocks[start:end] {
			b := raw & mask
			if !bd.stack.Seen(b) {
				firstTouch = append(firstTouch, b)
			}
			bd.Add(b)
			shardSeen[b] = struct{}{}
		}
		p := bd.Finish()
		for _, b := range firstTouch {
			if _, ok := seen[b]; ok {
				// A shard-local first touch of a block an earlier shard
				// accessed: the exact warmup guarantees its true reuse
				// distance exceeds the filter, so it is a capacity miss.
				p.Compulsory--
				p.Capacity++
			}
		}
		if err := out.Merge(p); err != nil {
			panic(err)
		}
		for b := range shardSeen {
			seen[b] = struct{}{}
		}
	}
	return out
}

// TestRefParallelMatchesSequential keeps the retained reference honest
// on its own: it must still match the sequential Build bit for bit, so
// a three-way disagreement in the differential matrix always has a
// majority.
func TestRefParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		blocks := randomOracleTrace(r)
		n := 4 + r.Intn(7)
		cacheBlocks := 1 << uint(r.Intn(6))
		want := Build(blocks, n, cacheBlocks)
		for _, workers := range []int{1, 3, 7} {
			got := refBuildParallel(blocks, n, cacheBlocks, workers)
			if d := diffProfiles(got, want); d != "" {
				t.Fatalf("trial %d (n=%d cap=%d) workers=%d: %s",
					trial, n, cacheBlocks, workers, d)
			}
		}
	}
}
