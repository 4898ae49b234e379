package lru

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The tests below pin the gate's distance classification — stamps
// against the window's last stamp — against the naive slice model, at
// window sizes on both sides of every distance.

func TestDistanceTreeMatchesStack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks := make([]uint64, 20000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(300))
	}
	want := referenceDistances(blocks)
	for _, k := range []int{1, 2, 17, 150, 299, 300, 301} {
		s := NewStack(k, 9)
		for i, b := range blocks {
			g, above := s.Touch(b)
			d := want[i]
			switch {
			case d < 0 && g != GateCold,
				d >= 0 && d < k && (g != GateWithin || len(above) != d),
				d >= k && g != GateBeyond:
				t.Fatalf("k=%d access %d block %d: gate %d (walk %d), distance %d", k, i, b, g, len(above), d)
			}
		}
		if s.Len() != 300 {
			t.Fatalf("k=%d: Len = %d, want 300", k, s.Len())
		}
	}
}

func TestDistanceTreeSequential(t *testing.T) {
	narrow, exact := NewStack(99, 0), NewStack(100, 0)
	// First pass over 100 blocks: all cold.
	for b := uint64(0); b < 100; b++ {
		for _, s := range []*Stack{narrow, exact} {
			if g, _ := s.Touch(b); g != GateCold {
				t.Fatalf("first access of %d: gate %d", b, g)
			}
		}
	}
	// Later passes: every distance is 99 (all other blocks between).
	for pass := 0; pass < 2; pass++ {
		for b := uint64(0); b < 100; b++ {
			if g, _ := narrow.Touch(b); g != GateBeyond {
				t.Fatalf("pass %d block %d: gate %d in a window of 99, want beyond", pass, b, g)
			}
			if g, above := exact.Touch(b); g != GateWithin || len(above) != 99 {
				t.Fatalf("pass %d block %d: gate %d walk %d in a window of 100, want within at 99", pass, b, g, len(above))
			}
		}
	}
}

func TestDistanceTreeProperty(t *testing.T) {
	// Against the naive reference on arbitrary short traces, at a
	// window size chosen by the trace itself.
	f := func(raw []byte, kRaw uint8) bool {
		blocks := make([]uint64, len(raw))
		for i, r := range raw {
			blocks[i] = uint64(r % 17)
		}
		want := referenceDistances(blocks)
		k := int(kRaw%18) + 1
		s := NewStack(k, 0)
		for i, b := range blocks {
			g, _ := s.Touch(b)
			switch d := want[i]; {
			case d < 0 && g != GateCold,
				d >= 0 && d < k && g != GateWithin,
				d >= k && g != GateBeyond:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFAMisses(t *testing.T) {
	// Cyclic pattern over 4 blocks with capacity 4: only 4 cold misses.
	var blocks []uint64
	for r := 0; r < 10; r++ {
		for b := uint64(0); b < 4; b++ {
			blocks = append(blocks, b)
		}
	}
	if got := FAMisses(blocks, 4); got != 4 {
		t.Fatalf("capacity 4: %d misses, want 4", got)
	}
	// Capacity 3 with LRU on a cyclic 4-block pattern: everything misses.
	if got := FAMisses(blocks, 3); got != 40 {
		t.Fatalf("capacity 3: %d misses, want 40", got)
	}
	// Capacity 0 holds nothing.
	if got := FAMisses(blocks, 0); got != 40 {
		t.Fatalf("capacity 0: %d misses, want 40", got)
	}
}

func BenchmarkStackTouch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([]uint64, 1<<16)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1 << 14))
	}
	s := NewStack(257, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(blocks[i&(len(blocks)-1)])
	}
}

// TestTouchSteadyStateAllocs pins the steady-state cost: once every
// block has been touched, an access is a stamp read and write plus a
// Push or Lift over preallocated storage, on either stamp store, so it
// allocates nothing.
func TestTouchSteadyStateAllocs(t *testing.T) {
	for _, bits := range []int{0, 6} {
		s := NewStack(17, bits)
		for b := uint64(0); b < 64; b++ {
			s.Touch(b)
		}
		var i uint64
		allocs := testing.AllocsPerRun(8192, func() {
			s.Touch(i * 7 % 64)
			i++
		})
		if allocs != 0 {
			t.Fatalf("bits=%d: steady-state Touch allocates %.1f per op", bits, allocs)
		}
	}
}
