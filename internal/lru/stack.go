// Package lru provides the LRU gate behind conflict-miss profiling and
// fully-associative reference simulation.
//
// The profiling algorithm of Vandierendonck et al. (DATE 2006, Fig. 1)
// asks its LRU stack two questions per access: is the block's reuse
// distance at most the cache capacity, and which blocks were accessed
// since its previous use. Both are answered by the top k blocks of the
// stack plus the set of blocks ever seen, so that is all Stack keeps
// (DESIGN.md §12):
//
//   - a last-touch stamp per block, 0 for a block never seen, drawn
//     from a clock that ticks once per access;
//   - the window, a Recent holding the k most recent blocks.
//
// A block whose old stamp is at least the stamp of the window's last
// block sits in the window, so its reuse distance is below k and the
// blocks above it are a prefix of the window. Any other seen block is
// below the window. Nothing about the order below the window is kept:
// no later classification depends on it, and a full top-to-bottom
// listing, which only checkpoints need, is the blocks sorted by stamp.
//
// An access is classified from stamps alone. A re-reference inside the
// window is finished in two steps: Touch hands back the window with
// the block still in place, the caller finds the block's position — a
// conflict walk scans the window from the front and meets it, any
// other caller asks Find, a binary search over the window's stamps —
// and Lift moves it to the front.
package lru

import (
	"cmp"
	"fmt"
	"slices"
)

// Gate is the three-way classification returned by Touch.
type Gate int8

const (
	// GateCold marks a first-ever access (no reuse distance).
	GateCold Gate = iota
	// GateWithin marks a reuse distance below the window size k.
	GateWithin
	// GateBeyond marks a reuse distance of k or more.
	GateBeyond
)

// Stack is the LRU gate: a last-touch stamp per block and the window of
// the k most recent blocks. Stamps live in a slice indexed by block
// when the blocks are known to fit a small width, and in a map
// otherwise, so a gate over wide addresses costs memory in proportion
// to the blocks it has seen.
//
// The zero value is not usable; call NewStack.
type Stack struct {
	flat    []uint64          // stamp by block, when direct-indexed
	sparse  map[uint64]uint64 // stamp by block otherwise
	first   []uint64          // every block seen, in first-touch order
	clock   uint64            // stamp of the latest access
	win     *Recent
	lifting bool   // a GateWithin Touch awaits its Lift
	pending uint64 // the block that Touch classified GateWithin
}

// NewStack returns an empty gate whose window holds k >= 1 blocks.
// With bits > 0 every block must be below 2^bits and stamps are
// direct-indexed; with bits == 0 they are kept in a map.
func NewStack(k, bits int) *Stack {
	s := &Stack{win: NewRecent(k)}
	if bits > 0 {
		s.flat = make([]uint64, 1<<uint(bits))
	} else {
		s.sparse = make(map[uint64]uint64)
	}
	return s
}

func (s *Stack) stamp(b uint64) uint64 {
	if s.flat != nil {
		return s.flat[b]
	}
	return s.sparse[b]
}

func (s *Stack) setStamp(b, t uint64) {
	if s.flat != nil {
		s.flat[b] = t
	} else {
		s.sparse[b] = t
	}
}

// Touch classifies an access to block b by its reuse distance d, the
// number of distinct blocks accessed since b's previous access, against
// the window size k, reading stamps only: GateCold on a first touch,
// GateWithin for d < k and GateBeyond otherwise. A cold or beyond
// access is complete when Touch returns, with b heading the window.
//
// A GateWithin access is not: Touch returns the window unchanged, b
// still at position d with the d blocks accessed since its previous
// access in front of it, most recent first, and the caller finishes the
// access with Lift(d). The window slice is valid until that Lift. A
// Touch while a Lift is pending panics.
func (s *Stack) Touch(b uint64) (g Gate, window []uint64) {
	if s.lifting {
		panic("lru: Touch while a Lift is pending")
	}
	old := s.stamp(b)
	w := s.win.Blocks()
	switch {
	case old == 0:
		g = GateCold
		s.first = append(s.first, b)
	case len(w) < s.win.k || old >= s.stamp(w[len(w)-1]):
		s.lifting, s.pending = true, b
		return GateWithin, w
	default:
		g = GateBeyond
	}
	s.win.Push(b)
	s.clock++
	s.setStamp(b, s.clock)
	return g, nil
}

// Lift finishes a GateWithin access: d must be the window position of
// the block Touch classified, which moves to the front and takes the
// next stamp. It returns the d blocks that were above it, most recent
// first, aliasing the window like Window. Lift without a pending access,
// or at a position that does not hold the touched block, panics: the
// caller's walk and the gate have diverged.
func (s *Stack) Lift(d int) (above []uint64) {
	if !s.lifting {
		panic("lru: Lift without a pending GateWithin access")
	}
	if w := s.win.Blocks(); uint(d) >= uint(len(w)) || w[d] != s.pending {
		panic(fmt.Sprintf("lru: Lift(%d) does not hold the touched block %#x", d, s.pending))
	}
	s.lifting = false
	s.clock++
	s.setStamp(s.pending, s.clock)
	return s.win.Lift(d)
}

// Find returns b's window position — its reuse distance — or -1 when b
// is not in the window: never seen, or below a full window. Stamps fall
// strictly from the front of the window to its back, so a binary search
// finds b in O(log k) stamp reads instead of a scan over the blocks
// above it. Between a GateWithin Touch of b and its Lift, b's stamp is
// still the old one, so Find(b) is the position Lift wants.
func (s *Stack) Find(b uint64) int {
	old := s.stamp(b)
	w := s.win.Blocks()
	if old == 0 || len(w) == s.win.k && old < s.stamp(w[len(w)-1]) {
		return -1
	}
	lo, hi := 0, len(w)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.stamp(w[mid]) > old {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Seen reports whether b has been touched before.
func (s *Stack) Seen(b uint64) bool { return s.stamp(b) != 0 }

// Len returns the number of distinct blocks touched.
func (s *Stack) Len() int { return len(s.first) }

// Window returns the k most recent blocks, most recent first. The
// slice aliases the window and is valid until the next Touch, Lift,
// Absorb or Restore.
func (s *Stack) Window() []uint64 { return s.win.Blocks() }

// FirstTouched returns every block touched, in first-touch order. The
// slice aliases the gate's storage and is valid until the next Touch,
// Absorb or Restore.
func (s *Stack) FirstTouched() []uint64 { return s.first }

// Blocks returns every block touched, most recent first: the full LRU
// stack, ordered by sorting stamps. Restore inverts it.
func (s *Stack) Blocks() []uint64 {
	type stamped struct{ t, b uint64 }
	byTime := make([]stamped, len(s.first))
	for i, b := range s.first {
		byTime[i] = stamped{s.stamp(b), b}
	}
	slices.SortFunc(byTime, func(x, y stamped) int { return cmp.Compare(y.t, x.t) })
	out := make([]uint64, len(byTime))
	for i, e := range byTime {
		out[i] = e.b
	}
	return out
}

// Restore touches a top-to-bottom listing, as Blocks returns it, into
// an empty gate from the bottom up. The result classifies every later
// access exactly as the listed gate would: stamps differ, but only
// their order matters. A duplicate block means the listing is corrupt
// and is reported rather than silently merged.
func (s *Stack) Restore(topToBottom []uint64) error {
	for i := len(topToBottom) - 1; i >= 0; i-- {
		b := topToBottom[i]
		if s.Seen(b) {
			return fmt.Errorf("lru: duplicate block %#x in stack listing", b)
		}
		s.Touch(b)
	}
	return nil
}

// Absorb advances s over the accesses another gate o recorded, as if
// s had touched them itself: o must have started empty, with the same
// window size, on the accesses that directly follow s's. Every block
// o saw is more recent than every block only s saw, so o's stamps move
// past s's clock and o's window heads the new one, topped up from s's
// window when o saw fewer than k blocks. o is left unchanged. Absorb
// returns how many of o's first touches s had already seen: the
// accesses o took for cold that were re-references all along.
func (s *Stack) Absorb(o *Stack) (reseen int) {
	for _, b := range o.first {
		if s.Seen(b) {
			reseen++
		} else {
			s.first = append(s.first, b)
		}
		s.setStamp(b, s.clock+o.stamp(b))
	}
	s.clock += o.clock
	w := append(make([]uint64, 0, s.win.k), o.win.Blocks()...)
	for _, b := range s.win.Blocks() {
		if len(w) == s.win.k {
			break
		}
		if !o.Seen(b) {
			w = append(w, b)
		}
	}
	s.win.Reset(w)
	return reseen
}

// FAMisses counts misses of a fully-associative LRU cache with the
// given capacity in blocks over a sequence of block addresses: an
// access misses iff it is a first touch or its reuse distance is >=
// capacity. This is the paper's "FA" reference column (Table 3).
func FAMisses(blocks []uint64, capacity int) uint64 {
	if capacity < 1 {
		return uint64(len(blocks)) // a cache that holds nothing misses every access
	}
	s := NewStack(capacity, 0)
	var misses uint64
	for _, b := range blocks {
		if g, _ := s.Touch(b); g != GateWithin {
			misses++
		} else {
			s.Lift(s.Find(b))
		}
	}
	return misses
}
