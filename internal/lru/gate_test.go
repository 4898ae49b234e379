package lru

import (
	"math/rand"
	"slices"
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
			g, above := access(t, s, b)
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
			if g, _ := access(t, s, b); g != GateCold {
				t.Fatalf("first access of %d: gate %d", b, g)
			}
		}
	}
	// Later passes: every distance is 99 (all other blocks between).
	for pass := 0; pass < 2; pass++ {
		for b := uint64(0); b < 100; b++ {
			if g, _ := access(t, narrow, b); g != GateBeyond {
				t.Fatalf("pass %d block %d: gate %d in a window of 99, want beyond", pass, b, g)
			}
			if g, above := access(t, exact, b); g != GateWithin || len(above) != 99 {
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
			g, _ := access(t, s, b)
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
		blk := blocks[i&(len(blocks)-1)]
		if g, w := s.Touch(blk); g == GateWithin {
			s.Lift(slices.Index(w, blk))
		}
	}
}

// TestTouchSteadyStateAllocs pins the steady-state cost: once every
// block has been touched, an access is a stamp read and write plus a
// Push, or a Touch, the walk to the block and its Lift, over
// preallocated storage, on either stamp store, so it allocates nothing.
func TestTouchSteadyStateAllocs(t *testing.T) {
	for _, bits := range []int{0, 6} {
		s := NewStack(17, bits)
		for b := uint64(0); b < 64; b++ {
			access(t, s, b)
		}
		var i uint64
		var classes [3]int
		allocs := testing.AllocsPerRun(8192, func() {
			// A tight loop over 12 blocks lifts; every third access
			// reaches into all 64 and mostly lands beyond the window.
			b := i % 12
			if i%3 == 0 {
				b = i * 7 % 64
			}
			g, w := s.Touch(b)
			if g == GateWithin {
				s.Lift(slices.Index(w, b))
			}
			classes[g]++
			i++
		})
		if allocs != 0 {
			t.Fatalf("bits=%d: steady-state Touch allocates %.1f per op", bits, allocs)
		}
		if classes[GateWithin] == 0 || classes[GateBeyond] == 0 {
			t.Fatalf("bits=%d: gate classes %v, want lifts and pushes", bits, classes)
		}
	}
}

// access runs one access through the gate the way the profiler does:
// Touch, and for a GateWithin access the conflict walk — a scan of the
// window from the front until it meets b — whose index must equal
// Find(b), then Lift at that index. It returns the gate and, for a
// GateWithin access, the blocks that were above b.
func access(t testing.TB, s *Stack, b uint64) (Gate, []uint64) {
	t.Helper()
	g, w := s.Touch(b)
	if g != GateWithin {
		if w != nil {
			t.Fatalf("Touch(%d): gate %d returns the window %v", b, g, w)
		}
		return g, nil
	}
	d := slices.Index(w, b)
	if f := s.Find(b); f != d {
		t.Fatalf("Touch(%d): the walk meets it at %d, Find says %d", b, d, f)
	}
	return g, s.Lift(d)
}

// checkGateWalk drives the gate and the naive stack over blocks and
// requires three reuse distances to agree on every access: the naive
// stack's depth, Find's binary search (before Touch and again between
// Touch and Lift), and the index at which the conflict walk meets b in
// the window Touch returns. It returns how many GateWithin accesses
// found b at the window's tail and in a window not yet full.
func checkGateWalk(t testing.TB, s *Stack, ref *listStack, blocks []uint64) (tail, partial int) {
	t.Helper()
	k := s.win.k
	for i, b := range blocks {
		want := -1
		if ref.Contains(b) {
			want, _ = ref.WalkAbove(b, -1, nil)
			ref.MoveToTop(b)
		} else {
			ref.Push(b)
		}
		before := s.Find(b)
		g, w := s.Touch(b)
		switch {
		case want < 0 && g != GateCold, want >= k && g != GateBeyond:
			t.Fatalf("access %d block %d k=%d: gate %d at naive distance %d", i, b, k, g, want)
		case want < 0 || want >= k:
			if before != -1 || w != nil {
				t.Fatalf("access %d block %d k=%d: distance %d outside the window, Find %d, window %v", i, b, k, want, before, w)
			}
			continue
		case g != GateWithin:
			t.Fatalf("access %d block %d k=%d: gate %d at naive distance %d", i, b, k, g, want)
		}
		d := slices.Index(w, b)
		if d != want || before != want || s.Find(b) != want {
			t.Fatalf("access %d block %d k=%d: walk %d, Find %d then %d, naive %d", i, b, k, d, before, s.Find(b), want)
		}
		if d == len(w)-1 {
			tail++
		}
		if len(w) < k {
			partial++
		}
		if above := s.Lift(d); len(above) != d || d > 0 && above[d-1] == b {
			t.Fatalf("access %d block %d: Lift(%d) returns %v", i, b, d, above)
		}
		if s.Window()[0] != b {
			t.Fatalf("access %d block %d: window %v after Lift", i, b, s.Window())
		}
	}
	return tail, partial
}

// TestGateWalkDifferential runs checkGateWalk on random traces over
// small universes, one block in four a repeat of the one before, at
// window sizes from 1 to past the universe on both stamp stores, and
// requires the trials to have met b at the window's tail and inside a
// window that was not yet full.
func TestGateWalkDifferential(t *testing.T) {
	var tail, partial, repeats int
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		universe := 1 + rng.Intn(24)
		for _, k := range []int{1, 2, 1 + rng.Intn(universe), universe, universe + 1} {
			blocks := make([]uint64, 300)
			for i := range blocks {
				blocks[i] = uint64(rng.Intn(universe))
				if i > 0 && rng.Intn(4) == 0 {
					blocks[i] = blocks[i-1]
					repeats++
				}
			}
			ta, pa := checkGateWalk(t, NewStack(k, 5*(trial%2)), newListStack(), blocks)
			tail += ta
			partial += pa
		}
	}
	if tail == 0 || partial == 0 || repeats == 0 {
		t.Fatalf("coverage: %d tail hits, %d in a partial window, %d repeats", tail, partial, repeats)
	}
}

// FuzzGateWalk is TestGateWalkDifferential on fuzzer-chosen accesses
// and window size: the walk, Find and the naive stack agree on every
// reuse distance.
func FuzzGateWalk(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 1, 1, 3, 2, 1}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4, 4}, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		blocks := make([]uint64, len(data))
		for i, r := range data {
			blocks[i] = uint64(r % 48)
		}
		checkGateWalk(t, NewStack(int(kRaw)%50+1, 6), newListStack(), blocks)
	})
}

// TestTouchPendingLiftPanics: a GateWithin Touch leaves its Lift
// pending, and a Touch before that Lift, a Lift at a position that does
// not hold the touched block, and a Lift with nothing pending all
// panic. The gate finishes the pending access afterwards.
func TestTouchPendingLiftPanics(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	s := NewStack(4, 0)
	for _, b := range []uint64{1, 2, 3} {
		access(t, s, b)
	}
	mustPanic("Lift with nothing pending", func() { s.Lift(0) })
	if g, w := s.Touch(2); g != GateWithin || !slices.Equal(w, []uint64{3, 2, 1}) {
		t.Fatalf("Touch(2): gate %d window %v", g, w)
	}
	mustPanic("Touch with a Lift pending", func() { s.Touch(3) })
	mustPanic("Touch of the pending block", func() { s.Touch(2) })
	mustPanic("Lift at another block", func() { s.Lift(0) })
	mustPanic("Lift past the window", func() { s.Lift(3) })
	if above := s.Lift(s.Find(2)); !slices.Equal(above, []uint64{3}) {
		t.Fatalf("Lift above %v, want [3]", above)
	}
	checkOrder(t, s, []uint64{2, 3, 1})
	if g, _ := access(t, s, 1); g != GateWithin {
		t.Fatalf("Touch after the Lift: gate %d", g)
	}
}
