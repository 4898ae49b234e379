package cache

import (
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/trace"
)

func twoLevel(t *testing.T, l1Index gf2.Matrix) *Hierarchy {
	t.Helper()
	l1 := Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1, Index: l1Index}
	l2 := Config{SizeBytes: 16384, BlockBytes: 16, Ways: 4, Index: gf2.Identity(16, 8)}
	h, err := NewHierarchy(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyBasic(t *testing.T) {
	h := twoLevel(t, gf2.Matrix{})
	// Cold access misses both levels.
	m1, m2 := h.Access(0x1000, false)
	if !m1 || !m2 {
		t.Fatal("cold access must miss both levels")
	}
	// Re-access hits L1.
	m1, _ = h.Access(0x1000, false)
	if m1 {
		t.Fatal("second access must hit L1")
	}
	// An L1 conflict that stays within L2's reach: evict from L1, then
	// come back — L1 misses but L2 hits.
	h.Access(0x1000+1024, false) // alias in 256-set L1
	m1, m2 = h.Access(0x1000, false)
	if !m1 {
		t.Fatal("L1 must conflict-miss")
	}
	if m2 {
		t.Fatal("L2 must absorb the L1 conflict miss")
	}
	s1, s2 := h.L1.Stats(), h.L2.Stats()
	if s1.Accesses != 4 || s2.Accesses != s1.Misses {
		t.Fatalf("level accounting wrong: L1 %+v, L2 %+v", s1, s2)
	}
}

func TestHierarchyXORL1StillPays(t *testing.T) {
	// Thrash pattern absorbed by L2 either way; XOR-L1 removes the L2
	// accesses entirely, which is the latency/energy win.
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		tr.Append(0, trace.Read)
		tr.Append(256*4, trace.Read)
	}
	run := func(h *Hierarchy) (l1, l2 Stats) {
		for _, a := range tr.Accesses {
			h.Access(a.Addr, a.Kind == trace.Write)
		}
		return h.L1.Stats(), h.L2.Stats()
	}
	conv := twoLevel(t, gf2.Matrix{})
	s1c, s2c := run(conv)
	f := gf2.Identity(16, 8)
	f.Cols[0] |= gf2.Unit(8)
	x := twoLevel(t, f)
	s1x, s2x := run(x)
	if s1c.Misses < 390 {
		t.Fatalf("conventional L1 should thrash, got %d misses", s1c.Misses)
	}
	if s1x.Misses != 2 {
		t.Fatalf("XOR L1 misses = %d, want 2", s1x.Misses)
	}
	if s2x.Accesses >= s2c.Accesses {
		t.Fatal("XOR L1 must slash L2 traffic")
	}
	// AMAT: 1-cycle L1, 8-cycle L2, 60-cycle memory.
	if conv.AMAT(1, 8, 60) <= x.AMAT(1, 8, 60) {
		t.Fatalf("XOR hierarchy AMAT (%.2f) must beat conventional (%.2f)",
			x.AMAT(1, 8, 60), conv.AMAT(1, 8, 60))
	}
}

func TestHierarchyValidation(t *testing.T) {
	bad := Config{SizeBytes: 100, BlockBytes: 4, Ways: 1}
	good := Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1}
	if _, err := NewHierarchy(bad, good); err == nil {
		t.Fatal("bad L1 must fail")
	}
	if _, err := NewHierarchy(good, bad); err == nil {
		t.Fatal("bad L2 must fail")
	}
}

func TestHierarchyAMATEmpty(t *testing.T) {
	h := twoLevel(t, gf2.Matrix{})
	if h.AMAT(1, 8, 60) != 0 {
		t.Fatal("empty run AMAT must be 0")
	}
}
