package lru

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzStackRoundTrip round-trips arbitrary access sequences through the
// gate's listing: drive a gate with fuzzer-chosen accesses, list it
// with Blocks, Restore the listing into a fresh gate, and require the
// restored gate to be observably identical — same listing, window and
// membership, and the same gates and candidate walks under a further
// shared access suffix. The decoded accesses are replayed cyclically to
// 12288 accesses, so stamps run far past the population before the
// listing is taken. This is the lru half of the profiling checkpoint
// codec contract (profile snapshots persist exactly this listing).
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
		k := len(blocks)%64 + 1
		s := NewStack(k, 16)
		for i := 0; len(blocks) > 0 && i < 12288; i++ {
			s.Touch(blocks[i%len(blocks)])
		}
		snapshot := s.Blocks()
		restored := NewStack(k, 0)
		if err := restored.Restore(snapshot); err != nil {
			t.Fatalf("listing of a live gate rejected: %v", err)
		}
		if restored.Len() != s.Len() {
			t.Fatalf("restored Len = %d, want %d", restored.Len(), s.Len())
		}
		if got := restored.Blocks(); !slices.Equal(got, snapshot) {
			t.Fatalf("restored listing %v, want %v", got, snapshot)
		}
		if !slices.Equal(restored.Window(), s.Window()) {
			t.Fatalf("restored window %v, want %v", restored.Window(), s.Window())
		}
		// The restored gate must classify and walk identically under
		// further use.
		for i, b := range blocks {
			b ^= uint64(i) & 7 // reach a few blocks the prefix never saw
			if s.Seen(b) != restored.Seen(b) {
				t.Fatalf("suffix access %d: Seen(%#x) diverges", i, b)
			}
			g1, above1 := s.Touch(b)
			g2, above2 := restored.Touch(b)
			if g1 != g2 || !slices.Equal(above1, above2) {
				t.Fatalf("restored gate diverges at suffix access %d (block %#x): gate %d walk %v, want %d walk %v",
					i, b, g2, above2, g1, above1)
			}
		}
		// Duplicates in a listing must still be rejected.
		if len(snapshot) > 0 {
			dup := append([]uint64{snapshot[len(snapshot)-1]}, snapshot...)
			if err := NewStack(k, 0).Restore(dup); err == nil {
				t.Fatal("duplicated listing accepted")
			}
		}
	})
}
