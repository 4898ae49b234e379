// Package lru provides the LRU index behind conflict-miss profiling and
// fully-associative reference simulation.
//
// The one structure is Stack, an LRU stack over cache-block addresses:
// blocks are ordered by recency, most recent at the top. The profiling
// algorithm of Vandierendonck et al. (DATE 2006, Fig. 1) walks the
// blocks above a re-referenced block to accumulate conflict vectors;
// because it only walks when the reuse distance is at most the cache
// capacity, it first needs that distance classified without a walk.
//
// Stack does both with one index (DESIGN.md §12). Nodes live in one
// growable slab of int32-linked entries, so a profiling pass performs
// zero per-block allocations once the slab warms up. Each slot also
// carries the virtual time of its block's last access, and a Fenwick
// tree over those times answers Olken's order-statistics query: the
// reuse distance of an access in O(log u), where u is the number of
// live blocks. One map lookup per access resolves the slot for all of
// it.
//
// Recent is not a second index but a mirror: the top k blocks of a
// Stack in one contiguous slice, kept in step by the caller from
// Touch's gate. Walking the slab's links is one dependent load per
// step; an exact profiling pass reads the blocks above a candidate off
// Recent instead, where the loads are independent. Sampled passes,
// which walk only a few candidates, follow the links.
package lru

import (
	"fmt"
	"math"
)

// Node is one arena slot of a Stack: a block address and the int32
// slab indices of its neighbours (Prev toward the top, i.e. more
// recent). Exported so the profiling hot loop can walk the slab
// directly via Raw without a callback per element.
type Node struct {
	Block      uint64
	Prev, Next int32 // nilIdx terminates
}

// nilIdx is the arena's null link.
const nilIdx = int32(-1)

// minTreeSlots is the initial (and minimum) Fenwick array length.
const minTreeSlots = 4096

// Gate is the three-way classification returned by Touch.
type Gate int8

const (
	// GateCold marks a first-ever access (no reuse distance).
	GateCold Gate = iota
	// GateWithin marks a reuse distance <= the gate limit.
	GateWithin
	// GateBeyond marks a reuse distance > the gate limit.
	GateBeyond
)

// Stack is an LRU stack of block addresses with O(1) membership lookup,
// O(log u) reuse-distance classification and O(k) enumeration of the k
// blocks above a re-referenced block.
//
// Slots are allocated in first-touch order and never freed, so slot i
// holds the (i+1)-th distinct block ever touched. Every mutation stamps
// a fresh time and moves its block to the top together, so between
// calls the list order is the time order.
//
// The zero value is not usable; call NewStack.
type Stack struct {
	nodes   []Node
	times   []uint64 // times[i]: virtual time of slot i's last access
	byBlock map[uint64]int32
	top     int32
	bottom  int32

	// fen is a Fenwick tree over time slots 1..len-1 with one set slot
	// per live block. It stays nil until the first Touch, so a stack
	// that is only ever Recorded — the sharded reconciler's boundary
	// stack, a snapshot being restored — never pays for order
	// statistics it does not query; add is a no-op while it is nil.
	fen   []int32
	clock uint64 // last assigned virtual time
}

// NewStack returns an empty LRU stack.
func NewStack() *Stack {
	return &Stack{
		byBlock: make(map[uint64]int32),
		top:     nilIdx,
		bottom:  nilIdx,
	}
}

// NewStackFrom rebuilds a stack from a top-to-bottom block listing —
// the inverse of Blocks, used to restore profiling state from a
// checkpoint. The result classifies every later access exactly as the
// stack that was listed would: its clock differs, but reuse distances
// depend only on relative recency. Blocks must be distinct; a
// duplicate means the snapshot is corrupt and is reported rather than
// panicking.
func NewStackFrom(topToBottom []uint64) (*Stack, error) {
	s := NewStack()
	s.nodes = make([]Node, 0, len(topToBottom))
	s.times = make([]uint64, 0, len(topToBottom))
	for i := len(topToBottom) - 1; i >= 0; i-- {
		b := topToBottom[i]
		if s.Contains(b) {
			return nil, fmt.Errorf("lru: duplicate block %#x in stack snapshot", b)
		}
		s.Record(b)
	}
	return s, nil
}

// Len returns the number of distinct blocks on the stack.
func (s *Stack) Len() int { return len(s.nodes) }

// Contains reports whether block has been touched before.
func (s *Stack) Contains(block uint64) bool {
	_, ok := s.byBlock[block]
	return ok
}

// Index returns the arena slot of a block and whether it is present —
// the slab-level counterpart of Contains, for callers walking via Raw.
func (s *Stack) Index(block uint64) (int32, bool) {
	idx, ok := s.byBlock[block]
	return idx, ok
}

// Touch records an access to block and classifies its reuse distance —
// the number of distinct blocks accessed since its previous access —
// against limit. When the raw access gap since the previous touch is
// at most limit, the distance (which never exceeds the gap) must be
// within, and the prefix query is skipped: tight loops whose reuse
// fits the capacity filter pay only the two Fenwick point updates.
//
// stop is the slot that sat directly below block before the access.
// After Touch, block is on top and the blocks accessed since its
// previous access are exactly the slots from nodes[top].Next down to,
// not including, stop:
//
//	stop, g := s.Touch(b, limit)
//	nodes, top := s.Raw()
//	for i := nodes[top].Next; i != stop; i = nodes[i].Next { ... }
//
// For a cold access that walk is empty.
func (s *Stack) Touch(block uint64, limit int) (stop int32, g Gate) {
	if s.fen == nil {
		s.compact() // first query: build the order statistics from the list
	}
	stop, old := s.touch(block)
	switch {
	case old == 0:
		return stop, GateCold
	// Every live block owns one set slot and block's now sits at the
	// clock, so the blocks accessed since old are the set slots beyond
	// old, less block itself.
	case int(s.clock-old-1) <= limit || len(s.nodes)-1-s.prefix(old) <= limit:
		return stop, GateWithin
	}
	return stop, GateBeyond
}

// Record is Touch without the classification: it updates the recency
// state only (warmup, replay and restore).
func (s *Stack) Record(block uint64) { s.touch(block) }

// touch stamps block with the next virtual time and moves it to the
// top, pushing it if new. It returns the slot that sat below it before
// the move and its previous time, 0 for a first touch (times start
// at 1).
func (s *Stack) touch(block uint64) (stop int32, old uint64) {
	if s.fen != nil && s.clock+1 >= uint64(len(s.fen)) {
		s.compact()
	}
	s.clock++
	s.add(s.clock, 1)
	idx, ok := s.byBlock[block]
	if !ok {
		if len(s.nodes) >= math.MaxInt32 {
			panic("lru: stack exceeds 2^31-1 blocks")
		}
		idx = int32(len(s.nodes))
		s.byBlock[block] = idx
		s.nodes = append(s.nodes, Node{Block: block, Prev: nilIdx, Next: s.top})
		s.times = append(s.times, s.clock)
		if s.top != nilIdx {
			s.nodes[s.top].Prev = idx
		} else {
			s.bottom = idx
		}
		s.top = idx
		return s.nodes[idx].Next, 0
	}
	old = s.times[idx]
	s.times[idx] = s.clock
	s.add(old, -1)
	n := s.nodes[idx]
	if s.top == idx {
		return n.Next, old
	}
	// Unlink (idx is not the top, so it has a Prev) and relink on top.
	s.nodes[n.Prev].Next = n.Next
	if n.Next != nilIdx {
		s.nodes[n.Next].Prev = n.Prev
	} else {
		s.bottom = n.Prev
	}
	s.nodes[idx].Prev = nilIdx
	s.nodes[idx].Next = s.top
	s.nodes[s.top].Prev = idx
	s.top = idx
	return n.Next, old
}

// add updates the Fenwick tree at time slot i.
func (s *Stack) add(i uint64, delta int32) {
	for ; i < uint64(len(s.fen)); i += i & (-i) {
		s.fen[i] += delta
	}
}

// prefix returns the number of set time slots <= i.
func (s *Stack) prefix(i uint64) int {
	sum := int32(0)
	for ; i > 0; i &= i - 1 {
		sum += s.fen[i]
	}
	return int(sum)
}

// compact renumbers the live blocks' times to 1..u by walking the
// stack bottom to top — list order is time order — and resizes the
// Fenwick array to keep at least 4x headroom, so the amortized cost per
// access stays O(log u).
func (s *Stack) compact() {
	u := len(s.nodes)
	size := minTreeSlots
	for size <= 4*u {
		size <<= 1
	}
	if size != len(s.fen) {
		s.fen = make([]int32, size)
	} else {
		clear(s.fen)
	}
	t := uint64(0)
	for i := s.bottom; i != nilIdx; i = s.nodes[i].Prev {
		t++
		s.times[i] = t
	}
	// Build the all-ones prefix over slots 1..u in O(size).
	for i := 1; i <= u; i++ {
		s.fen[i] = 1
	}
	for i := 1; i < len(s.fen); i++ {
		if j := i + i&(-i); j < len(s.fen) {
			s.fen[j] += s.fen[i]
		}
	}
	s.clock = uint64(u)
}

// Raw exposes the arena slab and the index of the top node (nilIdx when
// empty) so a hot loop can walk the recency list inline (see Touch).
// The returned slice aliases the stack's storage and is invalidated by
// the next Touch or Record (append may move the slab); callers must
// treat it as read-only and must not hold it across mutations.
func (s *Stack) Raw() (nodes []Node, top int32) {
	return s.nodes, s.top
}

// Blocks returns all blocks from top to bottom: the snapshot listing
// NewStackFrom inverts.
func (s *Stack) Blocks() []uint64 {
	out := make([]uint64, 0, len(s.nodes))
	for i := s.top; i != nilIdx; i = s.nodes[i].Next {
		out = append(out, s.nodes[i].Block)
	}
	return out
}

// FAMisses counts misses of a fully-associative LRU cache with the
// given capacity in blocks over a sequence of block addresses: an
// access misses iff it is a first touch or its reuse distance is >=
// capacity. This is the paper's "FA" reference column (Table 3).
func FAMisses(blocks []uint64, capacity int) uint64 {
	s := NewStack()
	var misses uint64
	for _, b := range blocks {
		if _, g := s.Touch(b, capacity-1); g != GateWithin {
			misses++
		}
	}
	return misses
}
