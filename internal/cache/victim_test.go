package cache

import (
	"math/rand"
	"testing"

	"xoridx/internal/gf2"
)

func TestVictimValidation(t *testing.T) {
	if _, err := NewVictim(Config{SizeBytes: 64, BlockBytes: 4, Ways: 2}, 4); err == nil {
		t.Error("associative main cache must be rejected")
	}
	if _, err := NewVictim(dmConfig(64), 0); err == nil {
		t.Error("empty victim buffer must be rejected")
	}
	if _, err := NewVictim(Config{SizeBytes: 60, BlockBytes: 4, Ways: 1}, 4); err == nil {
		t.Error("bad geometry must be rejected")
	}
}

func TestVictimAbsorbsPingPong(t *testing.T) {
	// Two aliasing blocks thrash a direct-mapped cache; with a victim
	// buffer they ping-pong between main and buffer: only the two cold
	// misses reach memory.
	v, err := NewVictim(dmConfig(64), 4) // 16 sets
	if err != nil {
		t.Fatal(err)
	}
	var blocks []uint64
	for i := 0; i < 50; i++ {
		blocks = append(blocks, 0, 16)
	}
	s := runBlocks(v, blocks)
	if s.Misses != 2 {
		t.Fatalf("memory misses = %d, want 2 (cold only)", s.Misses)
	}
	if v.Swaps() == 0 {
		t.Fatal("victim buffer should have absorbed the conflicts")
	}
	// Compare with the plain direct-mapped cache: total thrash.
	plain := mustNew(t, dmConfig(64))
	if got := runBlocks(plain, blocks).Misses; got != 100 {
		t.Fatalf("plain cache misses = %d, want 100", got)
	}
}

func TestVictimOverflow(t *testing.T) {
	// More conflicting blocks than buffer entries: the buffer LRU
	// replaces and some misses reach memory again.
	v, err := NewVictim(dmConfig(64), 2) // 16 sets, 2 victim lines
	if err != nil {
		t.Fatal(err)
	}
	// Four blocks aliasing to set 0, cycled: working set of 4 > 1 main
	// + 2 victims.
	var blocks []uint64
	for r := 0; r < 20; r++ {
		blocks = append(blocks, 0, 16, 32, 48)
	}
	s := runBlocks(v, blocks)
	// 4 cyclically-accessed blocks into 3 slots (1 main + 2 victims)
	// under LRU: the next block is always the one evicted longest ago,
	// so every access misses — the classic LRU pathology that the
	// paper's §6.1 alludes to ("sub-optimality of the LRU replacement
	// policy").
	if s.Misses != s.Accesses {
		t.Fatalf("cyclic overflow should thrash: %d misses of %d accesses", s.Misses, s.Accesses)
	}
}

func TestVictimNeverWorseThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	blocks := make([]uint64, 20000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(512)) * uint64(1+rng.Intn(4))
	}
	plain := mustNew(t, dmConfig(1024))
	plainMisses := runBlocks(plain, blocks).Misses
	v, err := NewVictim(dmConfig(1024), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := runBlocks(v, blocks).Misses; got > plainMisses {
		t.Fatalf("victim cache (%d) worse than plain (%d)", got, plainMisses)
	}
}

func TestVictimWithXORIndex(t *testing.T) {
	// Victim buffers compose with XOR indexing: the combination can
	// only help.
	cfg := dmConfig(64)
	cfg.Index = gf2.Identity(16, 4)
	for c := range cfg.Index.Cols {
		cfg.Index.Cols[c] |= gf2.Unit(4 + c)
	}
	v, err := NewVictim(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []uint64
	for i := 0; i < 50; i++ {
		blocks = append(blocks, 0, 16) // no longer alias under f
	}
	if got := runBlocks(v, blocks).Misses; got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
}
