package cache

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/lru"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

func dmConfig(size int) Config {
	return Config{SizeBytes: size, BlockBytes: 4, Ways: 1}
}

func mustNew(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runBlocks reads each block in turn and returns the statistics so far.
func runBlocks(c interface {
	AccessBlock(uint64) bool
	Stats() Stats
}, blocks []uint64) Stats {
	for _, b := range blocks {
		c.AccessBlock(b)
	}
	return c.Stats()
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{SizeBytes: 4096, BlockBytes: 4, Ways: 1}
	if cfg.Blocks() != 1024 || cfg.Sets() != 1024 || cfg.SetBits() != 10 {
		t.Fatalf("geometry wrong: %d blocks, %d sets, %d bits", cfg.Blocks(), cfg.Sets(), cfg.SetBits())
	}
	cfg.Ways = 4
	if cfg.Sets() != 256 || cfg.SetBits() != 8 {
		t.Fatal("associative geometry wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, BlockBytes: 4, Ways: 1},
		{SizeBytes: 1024, BlockBytes: 3, Ways: 1},
		{SizeBytes: 1000, BlockBytes: 4, Ways: 1}, // 250 sets: not a power of 2
		{SizeBytes: 1024, BlockBytes: 4, Ways: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	// Mismatched index function.
	cfg := dmConfig(1024) // 8 set bits
	cfg.Index = hash.Modulo(16, 10)
	if _, err := New(cfg); err == nil {
		t.Error("set-bit mismatch should be rejected")
	}
}

func TestDirectMappedHitMiss(t *testing.T) {
	c := mustNew(t, dmConfig(1024)) // 256 sets of 4 bytes
	if !c.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if c.Access(0x1000) {
		t.Fatal("repeat access must hit")
	}
	if c.Access(0x1002) {
		t.Fatal("same block (byte 2) must hit")
	}
	// 0x1000 and 0x1400 differ only above the 8 index bits: conflict.
	if !c.Access(0x1400) {
		t.Fatal("aliasing block must miss")
	}
	// Direct-mapped: the alias evicted 0x1000, so it conflicts again.
	if !c.Access(0x1000) {
		t.Fatal("0x1000 must have been evicted by its alias")
	}
	s := c.Stats()
	if s.Accesses != 5 || s.Misses != 3 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	// 2-way, 2 sets, block 4 B => 16 B cache.
	c := mustNew(t, Config{SizeBytes: 16, BlockBytes: 4, Ways: 2,
		Index: hash.Modulo(16, 1)})
	// Three blocks mapping to set 0: 0, 2, 4 (even block addresses).
	c.AccessBlock(0) // miss
	c.AccessBlock(2) // miss
	c.AccessBlock(0) // hit, makes 2 the LRU
	c.AccessBlock(4) // miss, evicts 2
	if c.AccessBlock(0) {
		t.Fatal("0 must still be resident")
	}
	if !c.AccessBlock(2) {
		t.Fatal("2 must have been evicted")
	}
	s := c.Stats()
	if s.Misses != 4 {
		t.Fatalf("misses = %d, want 4", s.Misses)
	}
}

func TestFullyAssociativeMatchesDistanceTree(t *testing.T) {
	// FA cache = 1 set with Ways = capacity; misses must equal the
	// stack-distance model from package lru.
	rng := rand.New(rand.NewSource(5))
	blocks := make([]uint64, 4000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(100))
	}
	capacity := 32
	c := mustNew(t, Config{SizeBytes: capacity * 4, BlockBytes: 4, Ways: capacity,
		Index: hash.Modulo(16, 0)})
	got := runBlocks(c, blocks).Misses
	want := lru.FAMisses(blocks, capacity)
	if got != want {
		t.Fatalf("FA misses %d, distance-tree model %d", got, want)
	}
}

func TestXORIndexingRemovesStrideConflicts(t *testing.T) {
	// A stride of exactly the cache size in a direct-mapped cache maps
	// everything to the same set; a permutation-based XOR function can
	// spread it. This is the paper's core motivating pattern (Rau [9]).
	const sets = 256 // 1 KB cache, 4 B blocks
	var blocks []uint64
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 64; i++ {
			blocks = append(blocks, i*sets) // all map to set 0 under modulo
		}
	}
	conv := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1})
	convMisses := runBlocks(conv, blocks).Misses
	if convMisses != uint64(len(blocks)) {
		t.Fatalf("modulo cache should always miss, got %d/%d", convMisses, len(blocks))
	}
	// XOR the stride-carrying bits (8..13) into the index.
	extra := make([][]int, 8)
	for c := 0; c < 6; c++ {
		extra[c] = []int{8 + c}
	}
	f, err := hash.PermutationBased(16, 8, extra)
	if err != nil {
		t.Fatal(err)
	}
	x := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1, Index: f})
	xorMisses := runBlocks(x, blocks).Misses
	if xorMisses != 64 {
		t.Fatalf("XOR cache should only take 64 compulsory misses, got %d", xorMisses)
	}
}

func TestRunTrace(t *testing.T) {
	tr := &trace.Trace{Ops: 100}
	tr.Append(0x100, trace.Read)
	tr.Append(0x100, trace.Read)
	tr.Append(0x200, trace.Write)
	st, err := Simulate(context.Background(), tr, dmConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	s := st[0]
	if s.Accesses != 3 || s.Misses != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.MissesPerKOp(tr.OpsOrLen()) != 20 {
		t.Fatalf("misses/Kop = %v", s.MissesPerKOp(tr.OpsOrLen()))
	}
	if s.MissRate() != 2.0/3.0 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
	if hits := s.Accesses - s.Misses; hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestStatsEdgeCases(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.MissesPerKOp(0) != 0 {
		t.Fatal("zero-division guards failed")
	}
}

func TestTagDisambiguatesHighBits(t *testing.T) {
	// Blocks identical in the low 16 bits but different above must not
	// alias even though the index function only hashes 16 bits.
	c := mustNew(t, dmConfig(1024))
	c.AccessBlock(0x0_1234)
	if !c.AccessBlock(0x1_1234) {
		t.Fatal("blocks differing above bit 16 must not alias")
	}
	if c.AccessBlock(0x1_1234) {
		t.Fatal("re-access should hit")
	}
}

func TestSkewedBeatsDirectMappedOnAliases(t *testing.T) {
	// Two blocks aliasing under modulo thrash a DM cache but coexist in
	// a skewed cache whose second bank hashes differently.
	var blocks []uint64
	for i := 0; i < 100; i++ {
		blocks = append(blocks, 0, 256)
	}
	dm := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1})
	dmMisses := runBlocks(dm, blocks).Misses

	f0 := hash.Modulo(16, 8)
	h := gf2.Identity(16, 8)
	h.Cols[0] |= gf2.Unit(8) // bank 1 mixes bit 8 into index bit 0
	f1 := hash.MustXOR(h)
	sk, err := NewSkewed(4, []hash.Func{f0, f1})
	if err != nil {
		t.Fatal(err)
	}
	skMisses := runBlocks(sk, blocks).Misses
	if skMisses != 2 {
		t.Fatalf("skewed cache should take 2 compulsory misses, got %d", skMisses)
	}
	if dmMisses != uint64(len(blocks)) {
		t.Fatalf("direct-mapped should thrash, got %d", dmMisses)
	}
}

func TestSkewedValidation(t *testing.T) {
	if _, err := NewSkewed(4, []hash.Func{hash.Modulo(16, 8)}); err == nil {
		t.Error("single bank should be rejected")
	}
	if _, err := NewSkewed(4, []hash.Func{hash.Modulo(16, 8), hash.Modulo(16, 9)}); err == nil {
		t.Error("mismatched set bits should be rejected")
	}
}

// TestSkewedRejectsBadBlockSize: NewSkewed holds the block size to
// the rule New applies, so a zero block size can no longer reach the
// divide in Access.
func TestSkewedRejectsBadBlockSize(t *testing.T) {
	banks := []hash.Func{hash.Modulo(16, 4), hash.Modulo(16, 4)}
	for _, bb := range []int{0, -4, 3, 12} {
		sk, err := NewSkewed(bb, banks)
		if err == nil {
			sk.Access(12)
		}
		if !errors.Is(err, xerr.ErrInvalidGeometry) {
			t.Errorf("NewSkewed(%d, ...): err = %v, want wrapped ErrInvalidGeometry", bb, err)
		}
	}
}

func TestSkewedHitPath(t *testing.T) {
	f0 := hash.Modulo(16, 4)
	h := gf2.Identity(16, 4)
	h.Cols[0] |= gf2.Unit(4)
	f1 := hash.MustXOR(h)
	sk, _ := NewSkewed(4, []hash.Func{f0, f1})
	if !sk.AccessBlock(7) {
		t.Fatal("cold miss expected")
	}
	if sk.AccessBlock(7) {
		t.Fatal("hit expected")
	}
	if got := sk.Stats().Misses; got != 1 {
		t.Fatalf("misses = %d", got)
	}
	if sk.Access(7 * 4) {
		t.Fatal("byte-address access of resident block should hit")
	}
}

func TestFlushInvalidatesLines(t *testing.T) {
	c := mustNew(t, dmConfig(1024))
	c.AccessBlock(5)
	if c.AccessBlock(5) {
		t.Fatal("should hit before flush")
	}
	c.Flush()
	if !c.AccessBlock(5) {
		t.Fatal("should miss after flush")
	}
}

func TestSetIndexReconfigures(t *testing.T) {
	c := mustNew(t, dmConfig(1024)) // 256 sets
	c.AccessBlock(0)
	c.AccessBlock(256) // evicts block 0 under modulo
	f, err := hash.PermutationBased(16, 8, [][]int{{8}, {}, {}, {}, {}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetIndex(f); err != nil {
		t.Fatal(err)
	}
	// After reconfiguration, 0 and 256 no longer alias; both miss once
	// (flush), then coexist.
	c.AccessBlock(0)
	c.AccessBlock(256)
	if c.AccessBlock(0) || c.AccessBlock(256) {
		t.Fatal("blocks should coexist after reconfiguration")
	}
	// A mismatched function is rejected.
	if err := c.SetIndex(hash.Modulo(16, 9)); err == nil {
		t.Fatal("set-bit mismatch must be rejected")
	}
}

func TestWritebackAccounting(t *testing.T) {
	c := mustNew(t, dmConfig(64)) // 16 sets
	// Write block 0 (miss, allocates dirty), then read its alias 16:
	// evicts the dirty line -> one writeback.
	if !c.Write(0) {
		t.Fatal("cold write must miss")
	}
	if !c.AccessBlock(16) {
		t.Fatal("alias must miss")
	}
	s := c.Stats()
	if s.Writes != 1 {
		t.Fatalf("writes = %d", s.Writes)
	}
	if s.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", s.Writebacks)
	}
	if s.MemoryTraffic() != 3 { // 2 fills + 1 writeback
		t.Fatalf("traffic = %d", s.MemoryTraffic())
	}
	// Evicting a clean line adds no writeback.
	c.AccessBlock(32)
	if c.Stats().Writebacks != 1 {
		t.Fatal("clean eviction must not write back")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := mustNew(t, dmConfig(64))
	c.AccessBlock(5)    // clean fill
	if c.Write(5 * 4) { // write hit
		t.Fatal("write to resident block must hit")
	}
	c.AccessBlock(5 + 16) // evict -> writeback
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
}

func TestRunHonoursWriteKind(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(0x10, trace.Write)
	tr.Append(0x10, trace.Read)
	st, err := Simulate(context.Background(), tr, dmConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Writes != 1 {
		t.Fatalf("writes = %d", st[0].Writes)
	}
}

func TestXORIndexingReducesWriteTraffic(t *testing.T) {
	// Thrashing writes cause a writeback per eviction; XOR indexing
	// that removes the conflicts also removes the write traffic — the
	// energy argument of the paper's introduction.
	var tr trace.Trace
	for i := 0; i < 100; i++ {
		tr.Append(0, trace.Write)
		tr.Append(64*4, trace.Write) // alias in 16-set cache
	}
	f, err := hash.PermutationBased(16, 4, [][]int{{6}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dmConfig(64)
	cfg.Index = f
	st, err := Simulate(context.Background(), &tr, dmConfig(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, opt := st[0], st[1]
	if base.Writebacks < 190 {
		t.Fatalf("baseline writebacks = %d, want ~198", base.Writebacks)
	}
	if opt.Writebacks != 0 {
		t.Fatalf("XOR writebacks = %d, want 0 (lines stay resident)", opt.Writebacks)
	}
	if opt.MemoryTraffic() >= base.MemoryTraffic()/10 {
		t.Fatalf("traffic %d vs %d: XOR should slash memory traffic", opt.MemoryTraffic(), base.MemoryTraffic())
	}
}

func TestRandomReplacementEscapesLRUCycle(t *testing.T) {
	// Cyclic access over capacity+1 blocks: LRU always misses, random
	// replacement gets some hits (the §6.1 "sub-optimality of LRU").
	var blocks []uint64
	for rep := 0; rep < 200; rep++ {
		for b := uint64(0); b < 5; b++ {
			blocks = append(blocks, b)
		}
	}
	faCfg := func(r Replacement) Config {
		return Config{SizeBytes: 16, BlockBytes: 4, Ways: 4,
			Index: hash.Modulo(16, 0), Repl: r}
	}
	lruC := mustNew(t, faCfg(LRU))
	lruMisses := runBlocks(lruC, blocks).Misses
	rndC := mustNew(t, faCfg(Random))
	rndMisses := runBlocks(rndC, blocks).Misses
	if lruMisses != uint64(len(blocks)) {
		t.Fatalf("LRU on a 5-block cycle in 4 ways must always miss: %d/%d", lruMisses, len(blocks))
	}
	if rndMisses >= lruMisses {
		t.Fatalf("random replacement should beat LRU on the cycle: %d vs %d", rndMisses, lruMisses)
	}
}

func TestFIFOIgnoresReuse(t *testing.T) {
	// 2-way set; fill A, B; touch A (reuse); insert C.
	// LRU evicts B (least recent); FIFO evicts A (oldest fill).
	seq := []uint64{0, 2, 0, 4}
	run := func(r Replacement) *Cache {
		c := mustNew(t, Config{SizeBytes: 16, BlockBytes: 4, Ways: 2,
			Index: hash.Modulo(16, 1), Repl: r})
		runBlocks(c, seq)
		return c
	}
	lruC := run(LRU)
	if lruC.AccessBlock(0) { // must still be resident
		t.Fatal("LRU should have kept the reused block")
	}
	fifoC := run(FIFO)
	if !fifoC.AccessBlock(0) { // evicted despite reuse
		t.Fatal("FIFO should have evicted the oldest-filled block")
	}
}

func TestReplacementDeterministic(t *testing.T) {
	blocks := make([]uint64, 5000)
	rng := rand.New(rand.NewSource(9))
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(64))
	}
	run := func() uint64 {
		c := mustNew(t, Config{SizeBytes: 64, BlockBytes: 4, Ways: 4,
			Index: hash.Modulo(16, 2), Repl: Random})
		return runBlocks(c, blocks).Misses
	}
	if run() != run() {
		t.Fatal("random replacement must be deterministic across runs")
	}
}

func TestSetBitsExact(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{SizeBytes: 4096, BlockBytes: 4, Ways: 1}, 10},
		{Config{SizeBytes: 4096, BlockBytes: 4, Ways: 4}, 8},
		{Config{SizeBytes: 4096, BlockBytes: 64, Ways: 1}, 6},
		{Config{SizeBytes: 4, BlockBytes: 4, Ways: 1}, 0}, // one set
		// Invalid geometries: sets not a positive power of two.
		{Config{SizeBytes: 12, BlockBytes: 4, Ways: 1}, -1}, // 3 sets
		{Config{SizeBytes: 0, BlockBytes: 4, Ways: 1}, -1},
		{Config{SizeBytes: 4096, BlockBytes: 4, Ways: 3}, -1}, // 341 sets
	}
	for _, tc := range cases {
		if got := tc.cfg.SetBits(); got != tc.want {
			t.Errorf("SetBits(%+v) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}
