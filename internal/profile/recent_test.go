package profile

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// checkWindow requires an exact builder's window to equal the top
// CacheBlocks+1 blocks of its LRU stack.
func checkWindow(t *testing.T, bd *Builder, where string) {
	t.Helper()
	want := bd.stack.Blocks()
	want = want[:min(len(want), bd.p.CacheBlocks+1)]
	if got := bd.win.Blocks(); !slices.Equal(got, want) {
		t.Fatalf("%s: window %v, stack top %v", where, got, want)
	}
}

// TestBuilderWindowMirrorsStack pins the window every exact build walks:
// after every Add it equals the stack's top CacheBlocks+1, on the flat,
// sparse and sketch backends, across Windowed rotations and Warm, and
// after a checkpoint Restore taken once more than CacheBlocks+1 blocks
// are live — where the resumed histogram must equal an uninterrupted
// build's bit for bit.
func TestBuilderWindowMirrorsStack(t *testing.T) {
	const n, cacheBlocks = 16, 64
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(14)), 12_000)
	builders := map[string]*Builder{
		"flat":   NewBuilder(n, cacheBlocks),
		"sparse": NewBuilder(wideN, cacheBlocks),
		"sketch": newBuilder(n, cacheBlocks, &SketchOptions{Width: 1 << 8}),
	}
	for name, bd := range builders {
		for i, b := range blocks {
			bd.Add(b)
			checkWindow(t, bd, name)
			if i%7 == 0 {
				bd.Warm(b ^ 0x40)
				checkWindow(t, bd, name+" Warm")
			}
		}
	}

	w, err := NewWindowed(n, cacheBlocks, 0, SampleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		w.Add(b)
		if i%1000 == 999 {
			w.Rotate()
		}
		checkWindow(t, w.bd, "Windowed")
	}
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rw, err := RestoreWindowed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkWindow(t, rw.bd, "RestoreWindowed")

	// Cut once the stack holds more blocks than the window, so Restore
	// must truncate the listing it seeds the window from.
	ref := NewBuilder(n, cacheBlocks)
	bd := NewBuilder(n, cacheBlocks)
	cut := 0
	for bd.stack.Len() <= 2*(cacheBlocks+1) {
		ref.Add(blocks[cut])
		bd.Add(blocks[cut])
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
	checkWindow(t, restored, "Restore")
	for _, b := range blocks[cut:] {
		ref.Add(b)
		restored.Add(b)
		checkWindow(t, restored, "resumed")
	}
	if d := diffProfiles(restored.Finish(), ref.Finish()); d != "" {
		t.Fatalf("resumed at %d/%d: %s", cut, len(blocks), d)
	}
}

// TestSampledBuilderKeepsNoWindow: sampled builds walk the stack's list,
// so they must not pay to keep a window in step.
func TestSampledBuilderKeepsNoWindow(t *testing.T) {
	w, err := NewWindowed(16, 64, 0, SampleOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w.bd.win != nil {
		t.Fatal("sampled Windowed keeps a window")
	}
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rw, err := RestoreWindowed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rw.bd.win != nil {
		t.Fatal("restored sampled Windowed keeps a window")
	}
}
