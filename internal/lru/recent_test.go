package lru

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// TestRecentMatchesStack is the differential test of the window: after
// every access the gate's window equals the first k entries of the
// naive stack's listing, and every Lift returns exactly the naive
// walk, across a Restore from the gate's own listing, for capacities
// from 1 to past the universe.
func TestRecentMatchesStack(t *testing.T) {
	for _, k := range []int{1, 2, 7, 64, 257, 400} {
		rng := rand.New(rand.NewSource(int64(k)))
		s := NewStack(k, 0)
		ref := newListStack()
		lifts := 0
		const accesses = 40_000
		for i := 0; i < accesses; i++ {
			if i == accesses/2 {
				// Restore mid-stream from the gate's own listing.
				restored := NewStack(k, 0)
				if err := restored.Restore(s.Blocks()); err != nil {
					t.Fatal(err)
				}
				s = restored
				checkMirror(t, s, ref, i)
			}
			// Tight loops over a drifting base, with uniform noise, so
			// the gate returns all three classes at every capacity.
			b := uint64(i/1000*3+rng.Intn(12)) % 300
			if rng.Intn(4) == 0 {
				b = uint64(rng.Intn(300))
			}
			if checkAccess(t, "access", s, ref, b) == GateWithin {
				lifts++
			}
			checkMirror(t, s, ref, i)
		}
		if lifts == 0 {
			t.Fatalf("k=%d: no access lifted", k)
		}
	}
}

// checkMirror requires the gate's window to equal the reference
// stack's top k blocks.
func checkMirror(t *testing.T, s *Stack, ref *listStack, i int) {
	t.Helper()
	want := ref.Blocks()
	want = want[:min(len(want), s.win.k)]
	if got := s.Window(); !slices.Equal(got, want) {
		t.Fatalf("access %d: window %v, stack top %v", i, got, want)
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
// once the window is full, a Touch and the Push or Lift it makes reuse
// the buffer — slides included — and allocate nothing.
func TestRecentSteadyStateAllocs(t *testing.T) {
	const k = 32
	s := NewStack(k, 8)
	for b := uint64(0); b < 256; b++ {
		access(t, s, b)
	}
	var i uint64
	lifts := 0
	allocs := testing.AllocsPerRun(8192, func() {
		// Alternate a tight loop (Lift) with a far block (Push).
		b := i % 24
		if i%5 == 0 {
			b = 24 + i%232
		}
		if g, _ := access(t, s, b); g == GateWithin {
			lifts++
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state window path allocates %.1f per op", allocs)
	}
	if lifts == 0 {
		t.Fatal("no access lifted")
	}
}

// FuzzRecentMirror drives the gate and the naive stack with
// fuzzer-chosen accesses and window size, requiring the window to
// mirror the naive stack's top k after every access and every Lift to
// return exactly the naive walk — including after the gate is restored
// from its own listing at a fuzzer-chosen point.
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
		s := NewStack(k, 9)
		ref := newListStack()
		for i, b := range blocks {
			if i == cut {
				restored := NewStack(k, 9)
				if err := restored.Restore(s.Blocks()); err != nil {
					t.Fatal(err)
				}
				s = restored
			}
			checkAccess(t, "access", s, ref, b)
			checkMirror(t, s, ref, i)
		}
	})
}
