package profile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xoridx/internal/ckpt"
	"xoridx/internal/lru"
	"xoridx/internal/xerr"
)

// naiveStack is the reference LRU stack: every block ever touched,
// most recent first, moved to the front by a linear search.
type naiveStack []uint64

func (s *naiveStack) touch(b uint64) {
	if i := slices.Index(*s, b); i >= 0 {
		*s = slices.Delete(*s, i, i+1)
	}
	*s = slices.Insert(*s, 0, b)
}

// touchGate runs one access through a gate alone, with no histogram:
// a GateWithin access is lifted from the position Find reports.
func touchGate(s *lru.Stack, b uint64) {
	if g, _ := s.Touch(b); g == lru.GateWithin {
		s.Lift(s.Find(b))
	}
}

// checkWindow requires a builder's window to equal the top
// CacheBlocks+1 blocks of the reference stack.
func checkWindow(t *testing.T, bd *Builder, ref naiveStack, where string) {
	t.Helper()
	want := ref[:min(len(ref), bd.p.CacheBlocks+1)]
	if got := bd.stack.Window(); !slices.Equal(got, want) {
		t.Fatalf("%s: window %v, stack top %v", where, got, want)
	}
}

// TestBuilderWindowMirrorsStack pins the window every build walks:
// after every Add it equals the naive stack's top CacheBlocks+1, on the
// flat, sparse and sketch backends and on a sampled build, across
// gate-only touches and Windowed rotations, and after a checkpoint Restore taken once
// more than CacheBlocks+1 blocks are live — where the resumed histogram
// must equal an uninterrupted build's bit for bit.
func TestBuilderWindowMirrorsStack(t *testing.T) {
	const n, cacheBlocks = 16, 64
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(14)), 12_000)
	sampled := NewBuilder(n, cacheBlocks)
	sampled.setSampling(SampleOptions{K: 4, Seed: 3})
	builders := map[string]*Builder{
		"flat":    NewBuilder(n, cacheBlocks),
		"sparse":  NewBuilder(wideN, cacheBlocks),
		"sketch":  newBuilder(n, cacheBlocks, 256),
		"sampled": sampled,
	}
	for name, bd := range builders {
		var ref naiveStack
		for i, b := range blocks {
			bd.Add(b)
			ref.touch(b)
			checkWindow(t, bd, ref, name)
			if i%7 == 0 {
				touchGate(bd.stack, (b^0x40)&bd.mask)
				ref.touch(b ^ 0x40)
				checkWindow(t, bd, ref, name+" gate touch")
			}
		}
	}

	w, err := NewWindowed(n, cacheBlocks, 0, SampleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ref naiveStack
	for i, b := range blocks {
		w.Add(b)
		ref.touch(b)
		if i%1000 == 999 {
			w.Rotate()
		}
		checkWindow(t, w.bd, ref, "Windowed")
	}
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rw, err := RestoreWindowed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkWindow(t, rw.bd, ref, "RestoreWindowed")

	// Cut once the stack holds more blocks than the window, so Restore
	// must rebuild the window from a longer listing.
	want := NewBuilder(n, cacheBlocks)
	bd := NewBuilder(n, cacheBlocks)
	ref = nil
	cut := 0
	for bd.stack.Len() <= 2*(cacheBlocks+1) {
		want.Add(blocks[cut])
		bd.Add(blocks[cut])
		ref.touch(blocks[cut])
		cut++
	}
	buf.Reset()
	if err := bd.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkWindow(t, restored, ref, "Restore")
	for _, b := range blocks[cut:] {
		want.Add(b)
		restored.Add(b)
		ref.touch(b)
		checkWindow(t, restored, ref, "resumed")
	}
	if d := diffProfiles(restored.Finish(), want.Finish()); d != "" {
		t.Fatalf("resumed at %d/%d: %s", cut, len(blocks), d)
	}
}

// TestSketchBuilderStampsStayBounded: the gate direct-indexes its
// stamps only beside a flat table, so a sketch builder at n =
// MaxFlatBits — where a flat store would be 2^24 stamps, 128 MB — at
// its default cap grows the heap by its capped map and the blocks it
// sees, not by 2^n.
func TestSketchBuilderStampsStayBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	bd := newBuilder(MaxFlatBits, 64, SketchEntries)
	for b := uint64(0); b < 4096; b++ {
		bd.Add(b * 4099)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("sketch builder at n=%d allocated %d bytes", MaxFlatBits, grew)
	}
	runtime.KeepAlive(bd)
}

// TestRestoreRejectsDuplicateStackBlock: a CRC-valid snapshot whose
// stack listing names one block twice passes every counter check, so
// only the gate's Restore catches it — as a wrapped ErrFormat.
func TestRestoreRejectsDuplicateStackBlock(t *testing.T) {
	var buf bytes.Buffer
	err := ckpt.Write(&buf, checkpointMagic, checkpointVersion, func(b *bytes.Buffer) error {
		var p []byte
		for _, v := range []uint64{8, 16} { // n, cacheBlocks
			p = binary.AppendUvarint(p, v)
		}
		p = append(p, backendByte(8))
		// No sampling state; accesses, compulsory, capacity, candidates,
		// totalPairs, sampledCandidates; an empty support; then a
		// two-block listing naming block 5 twice.
		for _, v := range []uint64{0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 2, 5, 5} {
			p = binary.AppendUvarint(p, v)
		}
		b.Write(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&buf); !errors.Is(err, xerr.ErrFormat) || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate stack block: err = %v, want a wrapped ErrFormat naming the duplicate", err)
	}
}
