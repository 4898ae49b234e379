package profile

import (
	"context"
	"encoding/binary"
	"path/filepath"
	"sort"
	"testing"
)

// fuzzBlocks derives a block trace from raw fuzz bytes: two bytes per
// access, little endian, so the fuzzer controls both aliasing structure
// (low bits) and mask truncation (values beyond 2^n).
func fuzzBlocks(data []byte) []uint64 {
	const maxLen = 4096
	n := len(data) / 2
	if n > maxLen {
		n = maxLen
	}
	blocks := make([]uint64, n)
	for i := 0; i < n; i++ {
		blocks[i] = uint64(binary.LittleEndian.Uint16(data[2*i:]))
	}
	return blocks
}

// FuzzBuildParallelWorkers asserts worker-count invariance: BuildStream
// must produce the same profile — histogram and every counter — for
// workers = 1..16 on both exact backends on arbitrary traces, and that
// profile must match the sequential Build. A build over many slices
// of an awkward length is held to the same standard.
func FuzzBuildParallelWorkers(f *testing.F) {
	f.Add([]byte{}, uint8(8), uint8(4))
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 0, 1, 0}, uint8(6), uint8(2))
	// A strided pattern that aliases heavily at small n.
	var stride []byte
	for i := 0; i < 64; i++ {
		stride = append(stride, byte(i*16), byte(i>>4))
	}
	f.Add(stride, uint8(8), uint8(16))

	f.Fuzz(func(t *testing.T, data []byte, nRaw, capRaw uint8) {
		n := 4 + int(nRaw)%8              // 4..11
		cacheBlocks := 1 + int(capRaw)%64 // 1..64
		blocks := fuzzBlocks(data)
		want := Build(blocks, n, cacheBlocks)
		masked := maskBlocks(blocks, n)
		wantSparse := Build(masked, wideN, cacheBlocks)
		if d := diffWidened(wantSparse, want); d != "" {
			t.Fatalf("sparse at wideN vs flat n=%d cap=%d len=%d: %s", n, cacheBlocks, len(blocks), d)
		}
		for workers := 1; workers <= 16; workers++ {
			got := mustParallel(t, blocks, n, cacheBlocks, workers)
			if d := diffProfiles(got, want); d != "" {
				t.Fatalf("workers=%d n=%d cap=%d len=%d: %s",
					workers, n, cacheBlocks, len(blocks), d)
			}
			got = mustParallel(t, masked, wideN, cacheBlocks, workers)
			if d := diffProfiles(got, wantSparse); d != "" {
				t.Fatalf("sparse workers=%d n=%d cap=%d len=%d: %s",
					workers, n, cacheBlocks, len(blocks), d)
			}
		}
		got := mustParallel(t, blocks, n, cacheBlocks, slicesOf(len(blocks), 17))
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("slices of 17 n=%d cap=%d len=%d: %s", n, cacheBlocks, len(blocks), d)
		}
	})
}

// FuzzShardMerge drives the join directly with fuzz-chosen slice
// boundaries — including empty slices, single-access slices, and cut
// points nowhere near an even split, which BuildStream never produces
// — and asserts Builder.absorb still joins them to the exact
// sequential profile with exact walk stats.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 0, 1, 0}, []byte{1, 3}, uint8(6), uint8(2))
	f.Add([]byte{}, []byte{}, uint8(8), uint8(4))
	f.Add([]byte{5, 0, 5, 0, 5, 0, 9, 0, 5, 0}, []byte{0, 0, 5}, uint8(4), uint8(1))

	f.Fuzz(func(t *testing.T, data, cuts []byte, nRaw, capRaw uint8) {
		n := 4 + int(nRaw)%8
		cacheBlocks := 1 + int(capRaw)%64
		blocks := fuzzBlocks(data)
		want := Build(blocks, n, cacheBlocks)

		cutSet := map[int]struct{}{}
		for _, c := range cuts {
			cutSet[int(c)%(len(blocks)+1)] = struct{}{}
		}
		points := make([]int, 0, len(cutSet)+1)
		for c := range cutSet {
			points = append(points, c)
		}
		sort.Ints(points)
		points = append(points, len(blocks))

		joined := NewBuilder(n, cacheBlocks)
		prev := 0
		for _, cut := range points {
			s := NewBuilder(n, cacheBlocks)
			for _, b := range blocks[prev:cut] {
				s.Add(b)
			}
			if err := joined.absorb(s); err != nil {
				t.Fatal(err)
			}
			prev = cut
		}
		if d := diffProfiles(joined.p, want); d != "" {
			t.Fatalf("n=%d cap=%d len=%d cuts=%v: %s", n, cacheBlocks, len(blocks), points, d)
		}
		st := joined.stats
		if st.CandidateWalks != want.Candidates || st.WalkSteps != want.TotalPairs ||
			st.GatedCapacityMisses != want.Capacity {
			t.Fatalf("stats probes broken: %+v vs candidates=%d pairs=%d capacity=%d",
				st, want.Candidates, want.TotalPairs, want.Capacity)
		}
	})
}

// FuzzParallelCheckpointResume kills a checkpointed parallel build at a
// fuzz-chosen point in the source, then resumes from the snapshot with
// a different worker count. The resumed profile must be bit-identical
// to an uninterrupted sequential Build — slice-boundary invariance of
// the snapshot is part of the contract.
func FuzzParallelCheckpointResume(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 0}, uint16(2), uint8(3), uint8(9))
	f.Add([]byte{}, uint16(0), uint8(0), uint8(0))
	var loop []byte
	for i := 0; i < 200; i++ {
		loop = append(loop, byte(i%17), 0)
	}
	f.Add(loop, uint16(77), uint8(2), uint8(31))

	f.Fuzz(func(t *testing.T, data []byte, killRaw uint16, wRaw, w2Raw uint8) {
		const n, cacheBlocks = 10, 16
		blocks := fuzzBlocks(data)
		want := Build(blocks, n, cacheBlocks)
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")

		kill := 0
		if len(blocks) > 0 {
			kill = int(killRaw) % len(blocks)
		}
		ctx, cancel := context.WithCancel(context.Background())
		BuildStream(ctx, cancelAfterSource(blocks, kill, cancel), 1, n, cacheBlocks,
			Options{Workers: 1 + int(wRaw)%64,
				CheckpointPath: path, checkpointEvery: 1 + uint64(killRaw)%97, Resume: true})
		cancel()

		got, err := BuildStream(context.Background(), blockTrace(blocks), 1, n, cacheBlocks,
			Options{Workers: 1 + int(w2Raw)%77,
				CheckpointPath: path, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("n=%d cap=%d len=%d kill=%d: resumed differs: %s",
				n, cacheBlocks, len(blocks), kill, d)
		}
	})
}
