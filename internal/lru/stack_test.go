package lru

import (
	"math/rand"
	"slices"
	"testing"
)

// wide is a window larger than any universe below, so every re-touch
// is within it and its walk reads the full reuse distance.
const wide = 1 << 10

// touchDistance touches b and returns its reuse distance read off the
// candidate walk (the number of blocks above b before the access), or
// -1 for a first touch. The gate's window must exceed every distance.
func touchDistance(t *testing.T, s *Stack, b uint64) int {
	t.Helper()
	g, above := access(t, s, b)
	switch g {
	case GateCold:
		return -1
	case GateBeyond:
		t.Fatalf("Touch(%d) beyond a window of %d", b, s.win.k)
	}
	return len(above)
}

func checkOrder(t *testing.T, s *Stack, want []uint64) {
	t.Helper()
	if got := s.Blocks(); !slices.Equal(got, want) {
		t.Fatalf("Blocks() = %v, want %v", got, want)
	}
}

func TestStackBasicOrder(t *testing.T) {
	s := NewStack(wide, 0)
	access(t, s, 1)
	access(t, s, 2)
	access(t, s, 3)
	checkOrder(t, s, []uint64{3, 2, 1})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStackMoveToTop(t *testing.T) {
	s := NewStack(wide, 0)
	for b := uint64(1); b <= 5; b++ {
		access(t, s, b)
	}
	access(t, s, 3)
	checkOrder(t, s, []uint64{3, 5, 4, 2, 1})
	// Move bottom, then top (a no-op for the order).
	access(t, s, 1)
	access(t, s, 1)
	checkOrder(t, s, []uint64{1, 3, 5, 4, 2})
	if s.Len() != 5 {
		t.Fatalf("Len = %d after moves, want 5", s.Len())
	}
}

func TestStackDepthAndTouch(t *testing.T) {
	s := NewStack(wide, 0)
	if d := touchDistance(t, s, 10); d != -1 {
		t.Fatalf("first touch distance = %d", d)
	}
	access(t, s, 20)
	access(t, s, 30)
	if d := touchDistance(t, s, 10); d != 2 {
		t.Fatalf("Touch(10) distance = %d", d)
	}
	// After touching, 10 is on top: immediate re-touch has distance 0.
	if d := touchDistance(t, s, 10); d != 0 {
		t.Fatalf("re-touch = %d", d)
	}
	// A window of two blocks gates on both sides of distance 1: the
	// stack is 10 30 20.
	s2 := NewStack(2, 0)
	for _, b := range []uint64{20, 30, 10} {
		access(t, s2, b)
	}
	if g, above := access(t, s2, 30); g != GateWithin || !slices.Equal(above, []uint64{10}) {
		t.Fatalf("distance 1 in a window of 2: gate %d above %v", g, above)
	}
	if g, _ := access(t, s2, 20); g != GateBeyond {
		t.Fatalf("distance 2 in a window of 2: gate %d", g)
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
	for _, bits := range []int{0, 6} {
		s := NewStack(61, bits)
		for i, b := range blocks {
			if got := touchDistance(t, s, b); got != want[i] {
				t.Fatalf("bits=%d access %d block %d: distance %d, want %d", bits, i, b, got, want[i])
			}
		}
	}
}

// TestNewStackFromRoundTrip: a gate restored from another's listing
// holds the same listing and window and gates every later access the
// same way. Restore replaced the NewStackFrom constructor.
func TestNewStackFromRoundTrip(t *testing.T) {
	s := NewStack(3, 0)
	for _, b := range []uint64{10, 20, 30, 20, 40, 10} {
		access(t, s, b)
	}
	snapshot := s.Blocks()
	restored := NewStack(3, 0)
	if err := restored.Restore(snapshot); err != nil {
		t.Fatal(err)
	}
	checkOrder(t, restored, snapshot)
	if !slices.Equal(restored.Window(), s.Window()) {
		t.Fatalf("restored window %v, want %v", restored.Window(), s.Window())
	}
	for _, b := range []uint64{30, 40, 10, 20, 99, 30} {
		g1, above1 := access(t, s, b)
		g2, above2 := access(t, restored, b)
		if g1 != g2 || !slices.Equal(above1, above2) {
			t.Fatalf("restored gate diverges on block %d: gate %d above %v, want %d above %v", b, g2, above2, g1, above1)
		}
	}
}

func TestNewStackFromRejectsDuplicates(t *testing.T) {
	if err := NewStack(4, 0).Restore([]uint64{1, 2, 1}); err == nil {
		t.Fatal("duplicate block accepted")
	}
}

func TestNewStackFromEmpty(t *testing.T) {
	s := NewStack(4, 8)
	if err := s.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || len(s.Window()) != 0 {
		t.Fatalf("empty listing restored %d blocks, window %v", s.Len(), s.Window())
	}
}

// TestStackRawWalk checks the views the profiler reads: the window is
// the first k entries of the listing, FirstTouched lists each block
// once in first-touch order, and Seen answers membership.
func TestStackRawWalk(t *testing.T) {
	s := NewStack(3, 4)
	for _, b := range []uint64{5, 9, 1, 9, 5, 7} {
		access(t, s, b)
	}
	checkOrder(t, s, []uint64{7, 5, 9, 1})
	if got := s.Window(); !slices.Equal(got, []uint64{7, 5, 9}) {
		t.Fatalf("Window() = %v", got)
	}
	if got := s.FirstTouched(); !slices.Equal(got, []uint64{5, 9, 1, 7}) {
		t.Fatalf("FirstTouched() = %v", got)
	}
	if !s.Seen(7) || s.Seen(12) {
		t.Fatalf("Seen(7) = %v, Seen(12) = %v", s.Seen(7), s.Seen(12))
	}
}

// TestStackAbsorbMatchesSequential cuts a sequence at every point: a
// gate that absorbs a cold gate run over the suffix must equal one gate
// run over the whole sequence — listing, window, first touches and every
// later classification.
func TestStackAbsorbMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([]uint64, 300)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(40))
	}
	for _, k := range []int{1, 4, 16, 64} {
		for cut := 0; cut <= len(blocks); cut += 7 {
			want, got, shard := NewStack(k, 6), NewStack(k, 0), NewStack(k, 6)
			for _, b := range blocks {
				access(t, want, b)
			}
			for _, b := range blocks[:cut] {
				access(t, got, b)
			}
			for _, b := range blocks[cut:] {
				access(t, shard, b)
			}
			got.Absorb(shard)
			checkOrder(t, got, want.Blocks())
			if !slices.Equal(got.Window(), want.Window()) {
				t.Fatalf("k=%d cut %d: window %v, want %v", k, cut, got.Window(), want.Window())
			}
			if got.Len() != want.Len() {
				t.Fatalf("k=%d cut %d: Len %d, want %d", k, cut, got.Len(), want.Len())
			}
			for _, b := range blocks[:50] {
				g1, above1 := access(t, want, b)
				g2, above2 := access(t, got, b)
				if g1 != g2 || !slices.Equal(above1, above2) {
					t.Fatalf("k=%d cut %d: absorbed gate diverges on %d", k, cut, b)
				}
			}
		}
	}
}
