package profile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"xoridx/internal/xerr"
)

// windowedTrace draws a stream that exercises all three access
// classifications: a hot set for conflicts, occasional wide sweeps for
// capacity misses, and a growing tail of fresh blocks for compulsory
// misses.
func windowedTrace(rng *rand.Rand, length, n int) []uint64 {
	mask := uint64(1)<<uint(n) - 1
	blocks := make([]uint64, length)
	next := uint64(1000)
	for i := range blocks {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			blocks[i] = uint64(rng.Intn(32)) & mask
		case 5, 6, 7:
			blocks[i] = uint64(rng.Intn(512)) & mask
		default:
			blocks[i] = next & mask
			next++
		}
	}
	return blocks
}

// mustWindowed builds a Windowed, failing the test on constructor
// errors. The width picks its store: flat up to MaxFlatBits, sparse at
// wideN.
func mustWindowed(t *testing.T, n, cacheBlocks int, decay float64) *Windowed {
	t.Helper()
	w, err := NewWindowed(n, cacheBlocks, decay, SampleOptions{})
	if err != nil {
		t.Fatalf("NewWindowed: %v", err)
	}
	return w
}

// TestWindowedDecayZeroSingleWindow is the tentpole equivalence in its
// simplest form: one window, decay 0 — Snapshot before rotation and
// Aggregate after one rotation must both be bit-identical to batch
// Build, on both histogram backends, across randomized trials.
func TestWindowedDecayZeroSingleWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(6)
		cacheBlocks := 1 << uint(2+rng.Intn(5))
		blocks := windowedTrace(rng, 200+rng.Intn(2000), n)
		for _, width := range []int{n, wideN} {
			sparse := width == wideN
			want := Build(blocks, width, cacheBlocks)
			w := mustWindowed(t, width, cacheBlocks, 0)
			for _, b := range blocks {
				w.Add(b)
			}
			if d := diffProfiles(w.Snapshot(), want); d != "" {
				t.Fatalf("trial %d sparse=%v: pre-rotation Snapshot vs batch Build: %s", trial, sparse, d)
			}
			w.Rotate()
			if d := diffProfiles(w.Aggregate(), want); d != "" {
				t.Fatalf("trial %d sparse=%v: single-window Aggregate vs batch Build: %s", trial, sparse, d)
			}
		}
	}
}

// TestWindowedDecayZeroMultiWindow extends the equivalence across
// arbitrary rotation boundaries: with decay 0 the fold is plain
// addition and the LRU state spans windows, so any rotation schedule
// yields the same aggregate as one batch pass over the concatenation.
func TestWindowedDecayZeroMultiWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(6)
		cacheBlocks := 1 << uint(2+rng.Intn(5))
		blocks := windowedTrace(rng, 500+rng.Intn(3000), n)
		for _, width := range []int{n, wideN} {
			sparse := width == wideN
			want := Build(blocks, width, cacheBlocks)
			w := mustWindowed(t, width, cacheBlocks, 0)
			for _, b := range blocks {
				w.Add(b)
				if rng.Intn(97) == 0 {
					w.Rotate()
				}
			}
			if d := diffProfiles(w.Snapshot(), want); d != "" {
				t.Fatalf("trial %d sparse=%v: multi-window Snapshot vs batch Build: %s", trial, sparse, d)
			}
			w.Rotate()
			if d := diffProfiles(w.Aggregate(), want); d != "" {
				t.Fatalf("trial %d sparse=%v: multi-window Aggregate vs batch Build: %s", trial, sparse, d)
			}
		}
	}
}

// TestWindowedDecayFold pins the decay arithmetic directly: after
// rotating window A and then window B at decay d, every aggregate
// entry must equal floor(A[v]·(1−d)) + B[v] and TotalPairs must equal
// the exact histogram sum (not the floored counter fold).
func TestWindowedDecayFold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, cacheBlocks, decay = 10, 16, 0.25
	a := windowedTrace(rng, 1500, n)
	b := windowedTrace(rng, 1500, n)
	w := mustWindowed(t, n, cacheBlocks, decay)
	for _, blk := range a {
		w.Add(blk)
	}
	aWin := w.Snapshot() // decay hasn't applied yet: snapshot == window A
	w.Rotate()
	for _, blk := range b {
		w.Add(blk)
	}
	bWin := w.bd.p // Rotate folds the window and starts a new one; bWin stays window B
	w.Rotate()
	got := w.Aggregate()
	var wantSum uint64
	for v := range got.Table {
		want := uint64(float64(aWin.Table[v])*(1-decay)) + bWin.Table[v]
		if got.Table[v] != want {
			t.Fatalf("aggregate[%#x] = %d, want floor(%d·%.2f)+%d = %d",
				v, got.Table[v], aWin.Table[v], 1-decay, bWin.Table[v], want)
		}
		wantSum += want
	}
	if got.TotalPairs != wantSum {
		t.Fatalf("TotalPairs = %d, want exact histogram sum %d", got.TotalPairs, wantSum)
	}
	// A third, empty rotation still decays: silence fades the aggregate.
	before := w.Aggregate().TotalPairs
	w.Rotate()
	after := w.Aggregate().TotalPairs
	if before > 0 && after >= before {
		t.Fatalf("empty rotation did not decay the aggregate: %d -> %d", before, after)
	}
}

// TestWindowedClassificationSpansWindows pins that the LRU stack
// carries across Rotate: a block touched in window 1 and re-touched in
// window 2 is not compulsory again.
func TestWindowedClassificationSpansWindows(t *testing.T) {
	w := mustWindowed(t, 8, 8, 0)
	w.Add(3)
	w.Rotate()
	w.Add(3)
	w.Rotate()
	agg := w.Aggregate()
	if agg.Compulsory != 1 {
		t.Fatalf("compulsory = %d after re-touch across windows, want 1 (stack must span rotations)", agg.Compulsory)
	}
}

// TestWindowedCheckpointRoundTrip cuts a stream at an arbitrary point,
// checkpoints, restores, and runs the remainder through both the
// original and the restored instance: every observable — snapshots,
// rotation count, stream total — must match bit for bit.
func TestWindowedCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(6)
		cacheBlocks := 1 << uint(2+rng.Intn(4))
		decay := []float64{0, 0, 0.5, 0.125}[rng.Intn(4)]
		sparse := trial%2 == 1
		blocks := windowedTrace(rng, 1000+rng.Intn(2000), n)
		cut := rng.Intn(len(blocks))
		if sparse {
			n = wideN
		}

		w := mustWindowed(t, n, cacheBlocks, decay)
		for i, b := range blocks[:cut] {
			w.Add(b)
			if i%251 == 250 {
				w.Rotate()
			}
		}
		var buf bytes.Buffer
		if err := w.Checkpoint(&buf); err != nil {
			t.Fatalf("trial %d: Checkpoint: %v", trial, err)
		}
		restored, err := RestoreWindowed(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: RestoreWindowed: %v", trial, err)
		}
		if restored.Rotations() != w.Rotations() || restored.Total() != w.Total() || restored.Decay() != w.Decay() {
			t.Fatalf("trial %d: restored bookkeeping differs: rotations %d/%d total %d/%d decay %v/%v",
				trial, restored.Rotations(), w.Rotations(), restored.Total(), w.Total(), restored.Decay(), w.Decay())
		}
		for i, b := range blocks[cut:] {
			w.Add(b)
			restored.Add(b)
			if i%167 == 166 {
				w.Rotate()
				restored.Rotate()
			}
		}
		if d := diffProfiles(restored.Snapshot(), w.Snapshot()); d != "" {
			t.Fatalf("trial %d (decay=%v sparse=%v): restored stream diverged: %s", trial, decay, sparse, d)
		}
	}
}

// TestWindowedCheckpointCorruption flips or truncates the snapshot at
// every byte offset: RestoreWindowed must fail cleanly (never panic,
// never return a poisoned instance) with a wrapped xerr.ErrFormat.
func TestWindowedCheckpointCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	w := mustWindowed(t, 8, 8, 0.5)
	for _, b := range windowedTrace(rng, 600, 8) {
		w.Add(b)
	}
	w.Rotate()
	for _, b := range windowedTrace(rng, 200, 8) {
		w.Add(b)
	}
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	snap := buf.Bytes()
	for off := 0; off < len(snap); off++ {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x40
		if _, err := RestoreWindowed(bytes.NewReader(mut)); err == nil {
			// A bit flip the CRC catches or the validators catch — either
			// way it must not restore silently. (A flip may cancel out in
			// rare codec positions; none exist for this payload, and the
			// assertion documents that.)
			t.Fatalf("bit flip at offset %d restored without error", off)
		}
		if _, err := RestoreWindowed(bytes.NewReader(snap[:off])); err == nil {
			t.Fatalf("truncation at offset %d restored without error", off)
		}
	}
	// And an undamaged snapshot still restores after all that.
	if _, err := RestoreWindowed(bytes.NewReader(snap)); err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}
}

// TestWindowedDecayDomain pins the decay validation: NaN and anything
// outside [0, 1) is rejected with ErrInvalidOptions.
func TestWindowedDecayDomain(t *testing.T) {
	for _, bad := range []float64{-0.1, 1, 1.5, nan()} {
		if _, err := NewWindowed(8, 8, bad, SampleOptions{}); !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Fatalf("NewWindowed(decay=%v) = %v, want ErrInvalidOptions", bad, err)
		}
	}
	if _, err := NewWindowed(8, 8, 0.999, SampleOptions{}); err != nil {
		t.Fatalf("NewWindowed(decay=0.999): %v", err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}
