package lru

// listStack is the pre-arena Stack implementation — a heap-allocated
// doubly-linked *listNode list — kept as a test-only reference. Its
// WalkAbove is the paper's Fig. 1 traversal, with no clock and no
// order statistics. The differential tests below drive it in lockstep
// with the arena Stack on randomized access sequences and require the
// same recency order, the same gate as a bounded walk would decide,
// and the same walked blocks, so the fused slab/time/Fenwick index is
// proven against the structure it replaced rather than against a
// re-derivation of the same idea.

import (
	"fmt"
	"math/rand"
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

// checkAccess touches b on both stacks at the given limit and
// requires the arena gate to match the reference's bounded walk:
// cold iff the reference has never seen b, within iff the walk reaches
// b in at most limit steps, and, for a within access, the same blocks
// walked in the same order.
func checkAccess(t *testing.T, where string, arena *Stack, ref *listStack, b uint64, limit int) {
	t.Helper()
	want := GateCold
	var wantSeen []uint64
	if ref.Contains(b) {
		_, reached := ref.WalkAbove(b, limit, func(y uint64) bool {
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
	stop, got := arena.Touch(b, limit)
	if got != want {
		t.Fatalf("%s: Touch(%d, limit=%d) gate %d, want %d", where, b, limit, got, want)
	}
	gotSeen := walkAbove(arena, stop)
	if got == GateCold && len(gotSeen) != 0 {
		t.Fatalf("%s: cold Touch(%d) walks %v, want nothing", where, b, gotSeen)
	}
	if got != GateWithin {
		return
	}
	if len(gotSeen) != len(wantSeen) {
		t.Fatalf("%s: walk %v, want %v", where, gotSeen, wantSeen)
	}
	for i := range wantSeen {
		if gotSeen[i] != wantSeen[i] {
			t.Fatalf("%s: walk order %v, want %v", where, gotSeen, wantSeen)
		}
	}
}

// walkAbove lists the blocks a candidate walk visits after Touch
// returned stop: from just below the new top down to stop.
func walkAbove(s *Stack, stop int32) []uint64 {
	var out []uint64
	nodes, top := s.Raw()
	for i := nodes[top].Next; i != stop; i = nodes[i].Next {
		out = append(out, nodes[i].Block)
	}
	return out
}

// checkSame requires identical length and top-to-bottom order.
func checkSame(t *testing.T, where string, arena *Stack, ref *listStack) {
	t.Helper()
	if arena.Len() != ref.Len() {
		t.Fatalf("%s: Len %d, want %d", where, arena.Len(), ref.Len())
	}
	got, want := arena.Blocks(), ref.Blocks()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: order %v, want %v", where, got, want)
		}
	}
}

// TestStackDifferentialVsList drives the arena stack and the linked-
// list reference through identical randomized access sequences —
// gated touches and unclassified records — and requires bit-identical
// observable state after every step. Each touch is checked at a limit
// drawn around its true distance (one below, at, one above) or at
// random, so both sides of every gate boundary are exercised.
func TestStackDifferentialVsList(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		universe := 1 + rng.Intn(80)
		arena := NewStack()
		ref := newListStack()
		for step := 0; step < 400; step++ {
			b := uint64(rng.Intn(universe))
			where := fmt.Sprintf("trial %d step %d", trial, step)
			if arena.Contains(b) != ref.Contains(b) {
				t.Fatalf("%s: Contains(%d) diverges", where, b)
			}
			if rng.Intn(4) == 0 { // record: recency only
				arena.Record(b)
				if ref.Contains(b) {
					ref.MoveToTop(b)
				} else {
					ref.Push(b)
				}
			} else {
				limit := rng.Intn(universe + 2)
				if ref.Contains(b) && rng.Intn(2) == 0 {
					d, _ := ref.WalkAbove(b, -1, nil)
					limit = max(0, d-1+rng.Intn(3))
				}
				checkAccess(t, where, arena, ref, b, limit)
			}
			checkSame(t, where, arena, ref)
		}
	}
}

// TestStackDifferentialCompaction is the long case: enough accesses to
// cross many clock compactions, with a working set that grows and
// shrinks by phase while fresh blocks keep arriving, so the Fenwick
// array resizes up through several sizes. (It never resizes down: slots
// are never freed, so the live population only grows.) Limits stay
// small so the reference walk stays cheap.
func TestStackDifferentialCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	arena := NewStack()
	ref := newListStack()
	var compactions, resizes int
	next := uint64(1) // blocks below next have been handed out
	step := 0
	for _, ws := range []int{40, 600, 90, 3000, 200, 12000, 60} {
		for k := 0; k < 4*minTreeSlots; k++ {
			// Mostly reuse among the ws newest blocks; one access in
			// sixteen brings in a fresh block.
			b := next - 1 - uint64(rng.Intn(min(ws, int(next))))
			if rng.Intn(16) == 0 {
				b = next
				next++
			}
			clock, size := arena.clock, len(arena.fen)
			checkAccess(t, fmt.Sprintf("step %d", step), arena, ref, b, rng.Intn(300))
			if arena.clock <= clock {
				compactions++
			}
			if size != 0 && len(arena.fen) != size {
				resizes++
			}
			step++
		}
		checkSame(t, fmt.Sprintf("after phase ws=%d", ws), arena, ref)
	}
	if compactions < 8 || resizes < 3 {
		t.Fatalf("%d compactions, %d resizes: the case no longer exercises compaction", compactions, resizes)
	}
}
