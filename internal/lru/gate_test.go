package lru

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The distance tree is the Fenwick half of Stack: the tests below pin
// its gate against the list half (the walk from the new top to stop)
// and against the naive slice model.

func TestDistanceTreeMatchesStack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewStack()
	for i := 0; i < 20000; i++ {
		b := uint64(rng.Intn(300))
		limit := rng.Intn(320)
		stop, g := s.Touch(b, limit)
		if g == GateCold {
			continue
		}
		d := len(walkAbove(s, stop))
		if want := d <= limit; (g == GateWithin) != want {
			t.Fatalf("access %d block %d: gate %d at limit %d, walk distance %d", i, b, g, limit, d)
		}
	}
	if s.Len() != 300 {
		t.Fatalf("Len = %d, want 300", s.Len())
	}
}

func TestDistanceTreeSequential(t *testing.T) {
	s := NewStack()
	// First pass over 100 blocks: all cold.
	for b := uint64(0); b < 100; b++ {
		if _, g := s.Touch(b, 0); g != GateCold {
			t.Fatalf("first access of %d: gate %d", b, g)
		}
	}
	// Second pass: every distance is 99 (all other blocks between).
	for b := uint64(0); b < 100; b++ {
		if _, g := s.Touch(b, 98); g != GateBeyond {
			t.Fatalf("second pass block %d: gate %d at limit 98, want beyond", b, g)
		}
	}
	for b := uint64(0); b < 100; b++ {
		if _, g := s.Touch(b, 99); g != GateWithin {
			t.Fatalf("third pass block %d: gate %d at limit 99, want within", b, g)
		}
	}
}

func TestDistanceTreeProperty(t *testing.T) {
	// Against the naive reference on arbitrary short traces, at a
	// limit chosen by the trace itself.
	f := func(raw []byte, limit uint8) bool {
		blocks := make([]uint64, len(raw))
		for i, r := range raw {
			blocks[i] = uint64(r % 17)
		}
		want := referenceDistances(blocks)
		s := NewStack()
		for i, b := range blocks {
			_, g := s.Touch(b, int(limit%18))
			switch d := want[i]; {
			case d < 0 && g != GateCold,
				d >= 0 && d <= int(limit%18) && g != GateWithin,
				d > int(limit%18) && g != GateBeyond:
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
	s := NewStack()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(blocks[i&(len(blocks)-1)], 256)
	}
}

// TestTouchSteadyStateAllocs pins the steady-state cost: once every
// block has been touched, an access is one map lookup, a list move,
// two Fenwick point updates and at most one prefix query over
// preallocated storage — compactions included — so it allocates
// nothing.
func TestTouchSteadyStateAllocs(t *testing.T) {
	s := NewStack()
	for b := uint64(0); b < 64; b++ {
		s.Record(b)
	}
	var i uint64
	allocs := testing.AllocsPerRun(2*minTreeSlots, func() {
		s.Touch(i%64, 16)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Touch allocates %.1f per op", allocs)
	}
}
