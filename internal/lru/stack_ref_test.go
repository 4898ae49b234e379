package lru

// listStack is the naive LRU stack — a heap-allocated doubly-linked
// *listNode list holding every block ever touched — kept as a
// test-only reference. Its WalkAbove is the paper's Fig. 1 traversal,
// with no stamps and no window. The differential tests below drive it
// in lockstep with the gate on randomized access sequences and require
// the same recency order, the same gate as a bounded walk would decide,
// and the same walked blocks, so the stamp-and-window gate is proven
// against the full stack it replaced rather than against a
// re-derivation of the same idea.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type listNode struct {
	block      uint64
	prev, next *listNode // prev is toward the top (more recent)
}

type listStack struct {
	byBlock map[uint64]*listNode
	top     *listNode
	bottom  *listNode
	size    int
}

func newListStack() *listStack {
	return &listStack{byBlock: make(map[uint64]*listNode)}
}

func (s *listStack) Len() int { return s.size }

func (s *listStack) Contains(block uint64) bool {
	_, ok := s.byBlock[block]
	return ok
}

func (s *listStack) Push(block uint64) {
	n := &listNode{block: block, next: s.top}
	if s.top != nil {
		s.top.prev = n
	}
	s.top = n
	if s.bottom == nil {
		s.bottom = n
	}
	s.byBlock[block] = n
	s.size++
}

func (s *listStack) unlink(n *listNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.top = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.bottom = n.prev
	}
}

func (s *listStack) MoveToTop(block uint64) {
	n := s.byBlock[block]
	if s.top == n {
		return
	}
	s.unlink(n)
	n.prev = nil
	n.next = s.top
	s.top.prev = n
	s.top = n
}

func (s *listStack) WalkAbove(block uint64, limit int, fn func(above uint64) bool) (visited int, reached bool) {
	target := s.byBlock[block]
	for n := s.top; n != nil; n = n.next {
		if n == target {
			return visited, true
		}
		if limit >= 0 && visited >= limit {
			return visited, false
		}
		if fn != nil && !fn(n.block) {
			return visited, false
		}
		visited++
	}
	panic("listStack: target not reachable")
}

func (s *listStack) Blocks() []uint64 {
	out := make([]uint64, 0, s.size)
	for n := s.top; n != nil; n = n.next {
		out = append(out, n.block)
	}
	return out
}

// checkAccess touches b on the gate and the reference and requires the
// gate to match the reference's walk bounded at k-1 steps, k the
// window size: cold iff the reference has never seen b, within iff the
// walk reaches b in at most k-1 steps, and, for a within access, the
// same blocks above b in the same order.
func checkAccess(t *testing.T, where string, gate *Stack, ref *listStack, b uint64) Gate {
	t.Helper()
	want := GateCold
	var wantSeen []uint64
	if ref.Contains(b) {
		_, reached := ref.WalkAbove(b, gate.win.k-1, func(y uint64) bool {
			wantSeen = append(wantSeen, y)
			return true
		})
		want = GateBeyond
		if reached {
			want = GateWithin
		}
		ref.MoveToTop(b)
	} else {
		ref.Push(b)
	}
	got, above := gate.Touch(b)
	if got != want {
		t.Fatalf("%s: Touch(%d) at k=%d: gate %d, want %d", where, b, gate.win.k, got, want)
	}
	if got != GateWithin {
		if above != nil {
			t.Fatalf("%s: gate %d Touch(%d) walks %v, want nothing", where, got, b, above)
		}
		return got
	}
	if !slices.Equal(above, wantSeen) {
		t.Fatalf("%s: walk %v, want %v", where, above, wantSeen)
	}
	return got
}

// checkSame requires the gate to hold the reference's state: the same
// population, top-to-bottom order, window and first-touch set.
func checkSame(t *testing.T, where string, gate *Stack, ref *listStack) {
	t.Helper()
	if gate.Len() != ref.Len() {
		t.Fatalf("%s: Len %d, want %d", where, gate.Len(), ref.Len())
	}
	want := ref.Blocks()
	if got := gate.Blocks(); !slices.Equal(got, want) {
		t.Fatalf("%s: order %v, want %v", where, got, want)
	}
	if got := gate.Window(); !slices.Equal(got, want[:min(len(want), gate.win.k)]) {
		t.Fatalf("%s: window %v, want top %v", where, got, want[:min(len(want), gate.win.k)])
	}
	first := slices.Clone(gate.FirstTouched())
	slices.Sort(first)
	slices.Sort(want)
	if !slices.Equal(first, want) {
		t.Fatalf("%s: first touches %v, want the blocks %v", where, first, want)
	}
}

// TestStackDifferentialVsList drives the gate and the linked-list
// reference through identical randomized access sequences and requires
// bit-identical observable state after every step. Each trial draws the
// window size around the universe size, so both sides of every gate
// boundary are exercised; half the trials direct-index their stamps,
// half keep them in a map, and one access in 64 restores the gate from
// its own listing before going on.
func TestStackDifferentialVsList(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		universe := 1 + rng.Intn(80)
		k, bits := 1+rng.Intn(universe+2), 7*(trial%2)
		gate := NewStack(k, bits)
		ref := newListStack()
		for step := 0; step < 400; step++ {
			b := uint64(rng.Intn(universe))
			where := fmt.Sprintf("trial %d step %d", trial, step)
			if gate.Seen(b) != ref.Contains(b) {
				t.Fatalf("%s: Seen(%d) diverges", where, b)
			}
			if rng.Intn(64) == 0 {
				restored := NewStack(k, bits)
				if err := restored.Restore(gate.Blocks()); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				gate = restored
			}
			checkAccess(t, where, gate, ref, b)
			checkSame(t, where, gate, ref)
		}
	}
}

// TestStackDifferentialCompaction is the long case: enough accesses
// for the clock to run far past the population, with a working set
// that grows and shrinks by phase, from well inside the window to far
// beyond it, while fresh blocks keep arriving. Every phase must both
// bring in and reuse blocks, and the wide phases must reach below the
// window.
func TestStackDifferentialCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	gate := NewStack(300, 16)
	ref := newListStack()
	next := uint64(1) // blocks below next have been handed out
	step := 0
	for _, ws := range []int{40, 600, 90, 3000, 200, 12000, 60} {
		var classes [3]int
		for k := 0; k < 16384; k++ {
			// Mostly reuse among the ws newest blocks; one access in
			// sixteen brings in a fresh block.
			b := next - 1 - uint64(rng.Intn(min(ws, int(next))))
			if rng.Intn(16) == 0 {
				b = next
				next++
			}
			classes[checkAccess(t, fmt.Sprintf("step %d", step), gate, ref, b)]++
			step++
		}
		if classes[GateCold] == 0 || classes[GateWithin] == 0 || ws > 1000 && classes[GateBeyond] == 0 {
			t.Fatalf("phase ws=%d: gate classes %v", ws, classes)
		}
		checkSame(t, fmt.Sprintf("after phase ws=%d", ws), gate, ref)
	}
}
