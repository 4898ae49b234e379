package lru

import (
	"math/rand"
	"testing"
)

// touchDistance touches b and returns its reuse distance read off the
// candidate walk (the number of blocks above b before the access), or
// -1 for a first touch.
func touchDistance(s *Stack, b uint64) int {
	stop, g := s.Touch(b, 0)
	if g == GateCold {
		return -1
	}
	return len(walkAbove(s, stop))
}

func checkOrder(t *testing.T, s *Stack, want []uint64) {
	t.Helper()
	got := s.Blocks()
	if len(got) != len(want) {
		t.Fatalf("Blocks() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocks() = %v, want %v", got, want)
		}
	}
}

func TestStackBasicOrder(t *testing.T) {
	s := NewStack()
	s.Record(1)
	s.Record(2)
	s.Record(3)
	checkOrder(t, s, []uint64{3, 2, 1})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStackMoveToTop(t *testing.T) {
	s := NewStack()
	for b := uint64(1); b <= 5; b++ {
		s.Record(b)
	}
	s.Record(3)
	checkOrder(t, s, []uint64{3, 5, 4, 2, 1})
	// Move bottom, then top (a no-op for the order).
	s.Record(1)
	s.Record(1)
	checkOrder(t, s, []uint64{1, 3, 5, 4, 2})
	if s.Len() != 5 {
		t.Fatalf("Len = %d after moves, want 5", s.Len())
	}
}

func TestStackDepthAndTouch(t *testing.T) {
	s := NewStack()
	if d := touchDistance(s, 10); d != -1 {
		t.Fatalf("first touch distance = %d", d)
	}
	s.Record(20)
	s.Record(30)
	if d := touchDistance(s, 10); d != 2 {
		t.Fatalf("Touch(10) distance = %d", d)
	}
	// After touching, 10 is on top: immediate re-touch has distance 0.
	if d := touchDistance(s, 10); d != 0 {
		t.Fatalf("re-touch = %d", d)
	}
	// The gate agrees with the walk on both sides of the limit.
	// Stack is now 10 30 20.
	if _, g := s.Touch(30, 1); g != GateWithin {
		t.Fatalf("distance 1 at limit 1: gate %d", g)
	}
	if _, g := s.Touch(20, 1); g != GateBeyond {
		t.Fatalf("distance 2 at limit 1: gate %d", g)
	}
}

// referenceDistances computes stack distances with a naive slice model.
func referenceDistances(blocks []uint64) []int {
	var stack []uint64
	out := make([]int, len(blocks))
	for i, b := range blocks {
		pos := -1
		for j, x := range stack {
			if x == b {
				pos = j
				break
			}
		}
		if pos == -1 {
			out[i] = -1
			stack = append([]uint64{b}, stack...)
		} else {
			out[i] = pos
			stack = append(stack[:pos], stack[pos+1:]...)
			stack = append([]uint64{b}, stack...)
		}
	}
	return out
}

func TestStackMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	blocks := make([]uint64, 3000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(60)) // small universe forces reuse
	}
	want := referenceDistances(blocks)
	s := NewStack()
	for i, b := range blocks {
		if got := touchDistance(s, b); got != want[i] {
			t.Fatalf("access %d block %d: distance %d, want %d", i, b, got, want[i])
		}
	}
}

func TestNewStackFromRoundTrip(t *testing.T) {
	s := NewStack()
	for _, b := range []uint64{10, 20, 30, 20, 40, 10} {
		s.Record(b)
	}
	snapshot := s.Blocks()
	restored, err := NewStackFrom(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	checkOrder(t, restored, snapshot)
	// The restored stack is already gated: it behaves identically going
	// forward, at every limit.
	for limit, b := range []uint64{30, 40, 10, 20, 99} {
		stop1, g1 := s.Touch(b, limit)
		stop2, g2 := restored.Touch(b, limit)
		if g1 != g2 || g1 != GateCold && len(walkAbove(s, stop1)) != len(walkAbove(restored, stop2)) {
			t.Fatalf("restored stack diverges on block %d at limit %d: gate %d vs %d", b, limit, g2, g1)
		}
	}
}

func TestNewStackFromRejectsDuplicates(t *testing.T) {
	if _, err := NewStackFrom([]uint64{1, 2, 1}); err == nil {
		t.Fatal("duplicate block accepted")
	}
}

func TestNewStackFromEmpty(t *testing.T) {
	s, err := NewStackFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("empty snapshot restored %d blocks", s.Len())
	}
}

// TestStackRawWalk checks the slab-level walk contract used by the
// profiling hot loop: following Next from Raw's top index visits the
// same sequence as Blocks.
func TestStackRawWalk(t *testing.T) {
	s := NewStack()
	for _, b := range []uint64{5, 9, 1, 9, 5, 7} {
		s.Record(b)
	}
	want := s.Blocks()
	nodes, top := s.Raw()
	var got []uint64
	for i := top; i != int32(-1); i = nodes[i].Next {
		got = append(got, nodes[i].Block)
	}
	if len(got) != len(want) {
		t.Fatalf("raw walk saw %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("raw walk %v, want %v", got, want)
		}
	}
	if idx, ok := s.Index(7); !ok || nodes[idx].Block != 7 {
		t.Fatalf("Index(7) = (%d, %v)", idx, ok)
	}
	if _, ok := s.Index(12345); ok {
		t.Fatal("Index of absent block reported present")
	}
}
