package lru

import (
	"encoding/binary"
	"testing"
)

// FuzzStackRoundTrip round-trips arbitrary access sequences through the
// stack's snapshot representation: drive a stack with fuzzer-chosen
// accesses, snapshot it with Blocks, rebuild it with NewStackFrom, and
// require the rebuilt stack to be observably identical — same listing,
// same membership, and the same gates and candidate walks under a
// further shared access suffix. The decoded accesses are replayed
// cyclically to at least 3·minTreeSlots, so every non-empty input
// crosses clock compactions before the snapshot. This is the lru half
// of the profiling checkpoint codec contract (profile snapshots
// persist exactly this listing).
func FuzzStackRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 0, 1, 0})
	f.Add([]byte{0xFF, 0x01, 0xFF, 0x01, 0x03, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		var blocks []uint64
		for i := 0; i+1 < len(data); i += 2 {
			blocks = append(blocks, uint64(binary.LittleEndian.Uint16(data[i:])))
		}
		s := NewStack()
		for i := 0; len(blocks) > 0 && i < 3*minTreeSlots; i++ {
			s.Touch(blocks[i%len(blocks)], i%64)
		}
		snapshot := s.Blocks()
		restored, err := NewStackFrom(snapshot)
		if err != nil {
			t.Fatalf("snapshot of a live stack rejected: %v", err)
		}
		if restored.Len() != s.Len() {
			t.Fatalf("restored Len = %d, want %d", restored.Len(), s.Len())
		}
		got := restored.Blocks()
		for i := range snapshot {
			if got[i] != snapshot[i] {
				t.Fatalf("block %d: %#x, want %#x", i, got[i], snapshot[i])
			}
		}
		// The restored stack must gate and walk identically under
		// further use, at limits spread across the live population.
		for i, b := range blocks {
			b ^= uint64(i) & 7 // reach a few blocks the prefix never saw
			limit := int(b) % (s.Len() + 2)
			stop1, g1 := s.Touch(b, limit)
			stop2, g2 := restored.Touch(b, limit)
			if g1 != g2 {
				t.Fatalf("restored stack diverges at suffix access %d (block %#x, limit %d): gate %d vs %d", i, b, limit, g2, g1)
			}
			if g1 == GateWithin {
				w1, w2 := walkAbove(s, stop1), walkAbove(restored, stop2)
				for j := range w1 {
					if w1[j] != w2[j] {
						t.Fatalf("suffix access %d: walk %v, want %v", i, w2, w1)
					}
				}
			}
		}
		// Duplicates in a snapshot must still be rejected.
		if len(snapshot) > 0 {
			if _, err := NewStackFrom(append([]uint64{snapshot[len(snapshot)-1]}, snapshot...)); err == nil {
				t.Fatal("duplicated snapshot accepted")
			}
		}
	})
}
