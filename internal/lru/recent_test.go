package lru

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// step drives one access through a stack and the window that mirrors
// it, the way the profiler does: the stack's gate at limit k-1 decides
// between Lift and Push. It returns the Lift result (nil otherwise) and
// checks it against the stack's own walk.
func step(t *testing.T, s *Stack, r *Recent, b uint64) []uint64 {
	t.Helper()
	stop, g := s.Touch(b, r.k-1)
	if g != GateWithin {
		r.Push(b)
		return nil
	}
	above := r.Lift(slices.Index(r.Blocks(), b))
	if want := walkAbove(s, stop); !slices.Equal(above, want) {
		t.Fatalf("Lift(%#x) = %v, stack walk %v", b, above, want)
	}
	return above
}

// checkMirror requires the window to equal the stack's top k blocks.
func checkMirror(t *testing.T, s *Stack, r *Recent, i int) {
	t.Helper()
	want := s.Blocks()
	want = want[:min(len(want), r.k)]
	if got := r.Blocks(); !slices.Equal(got, want) {
		t.Fatalf("access %d: window %v, stack top %v", i, got, want)
	}
}

// TestRecentMatchesStack is the differential test of the window: after
// every Push and Lift it equals the first k entries of Stack.Blocks,
// across many Fenwick compactions and across a Reset from a stack
// rebuilt by NewStackFrom, for capacities from 1 to past the universe.
func TestRecentMatchesStack(t *testing.T) {
	for _, k := range []int{1, 2, 7, 64, 257, 400} {
		rng := rand.New(rand.NewSource(int64(k)))
		s := NewStack()
		r := NewRecent(k)
		compactions, lifts := 0, 0
		const accesses = 40_000
		for i := 0; i < accesses; i++ {
			if i == accesses/2 {
				// Restore mid-stream: the listing seeds both halves.
				snapshot := s.Blocks()
				var err error
				if s, err = NewStackFrom(snapshot); err != nil {
					t.Fatal(err)
				}
				r.Reset(snapshot)
				checkMirror(t, s, r, i)
			}
			// Tight loops over a drifting base, with uniform noise, so
			// the gate returns all three classes at every capacity.
			b := uint64(i/1000*3+rng.Intn(12)) % 300
			if rng.Intn(4) == 0 {
				b = uint64(rng.Intn(300))
			}
			clock := s.clock
			if step(t, s, r, b) != nil {
				lifts++
			}
			if s.clock <= clock {
				compactions++
			}
			checkMirror(t, s, r, i)
		}
		if compactions < 8 {
			t.Fatalf("k=%d: %d compactions, want at least 8", k, compactions)
		}
		if lifts == 0 {
			t.Fatalf("k=%d: no access lifted", k)
		}
	}
}

// TestRecentResetTruncates seeds the window from listings shorter and
// longer than its capacity.
func TestRecentResetTruncates(t *testing.T) {
	r := NewRecent(3)
	r.Reset([]uint64{9, 8})
	if got := r.Blocks(); !slices.Equal(got, []uint64{9, 8}) {
		t.Fatalf("short Reset: %v", got)
	}
	r.Reset([]uint64{5, 4, 3, 2, 1})
	if got := r.Blocks(); !slices.Equal(got, []uint64{5, 4, 3}) {
		t.Fatalf("long Reset: %v", got)
	}
	r.Push(6)
	if got := r.Blocks(); !slices.Equal(got, []uint64{6, 5, 4}) {
		t.Fatalf("Push after Reset: %v", got)
	}
	if above := r.Lift(2); !slices.Equal(above, []uint64{6, 5}) {
		t.Fatalf("Lift(2) above = %v", above)
	}
	if got := r.Blocks(); !slices.Equal(got, []uint64{4, 6, 5}) {
		t.Fatalf("Lift(2): %v", got)
	}
}

// TestRecentLiftOutsidePanics: a Lift the gate would never issue — a
// position past the window, or the -1 of a block the scan did not
// find — is a divergence, not a silent no-op.
func TestRecentLiftOutsidePanics(t *testing.T) {
	r := NewRecent(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // drops 1
	for _, d := range []int{2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Lift(%d) did not panic", d)
				}
			}()
			r.Lift(d)
		}()
	}
}

// TestRecentSteadyStateAllocs pins the window path's steady-state cost:
// once the window is full, a Touch plus its Push or Lift reuses the
// buffer — slides included — and allocates nothing.
func TestRecentSteadyStateAllocs(t *testing.T) {
	const k = 32
	s := NewStack()
	r := NewRecent(k)
	for b := uint64(0); b < 256; b++ {
		s.Touch(b, k-1)
		r.Push(b)
	}
	var i uint64
	allocs := testing.AllocsPerRun(2*minTreeSlots, func() {
		// Alternate a tight loop (Lift) with a far block (Push).
		b := i % 24
		if i%5 == 0 {
			b = 24 + i%232
		}
		if _, g := s.Touch(b, k-1); g == GateWithin {
			r.Lift(slices.Index(r.Blocks(), b))
		} else {
			r.Push(b)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state window path allocates %.1f per op", allocs)
	}
}

// FuzzRecentMirror drives a stack and its window with fuzzer-chosen
// accesses and capacity, requiring the window to mirror the stack's
// top k after every access and every Lift to return exactly the
// stack's walk — including after a Reset from a NewStackFrom restore
// at a fuzzer-chosen point.
func FuzzRecentMirror(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add([]byte{1, 0, 2, 0, 1, 0, 3, 0, 2, 0}, uint8(2), uint16(3))
	f.Add([]byte{0xFF, 0x01, 0xFF, 0x01, 0x03, 0x02}, uint8(0), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8, cutRaw uint16) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		var blocks []uint64
		for i := 0; i+1 < len(data); i += 2 {
			blocks = append(blocks, uint64(binary.LittleEndian.Uint16(data[i:])%512))
		}
		k := int(kRaw)%64 + 1
		cut := 0
		if len(blocks) > 0 {
			cut = int(cutRaw) % len(blocks)
		}
		s := NewStack()
		r := NewRecent(k)
		for i, b := range blocks {
			if i == cut {
				snapshot := s.Blocks()
				var err error
				if s, err = NewStackFrom(snapshot); err != nil {
					t.Fatal(err)
				}
				r.Reset(snapshot)
			}
			step(t, s, r, b)
			checkMirror(t, s, r, i)
		}
	})
}
