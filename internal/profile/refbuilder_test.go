package profile

// The pre-overhaul Fig. 1 builder, kept verbatim as a test-only
// reference: a heap-allocated doubly-linked LRU stack, a bounded
// counting walk on every re-reference, and a full rollback re-walk when
// the walk fails to reach the block within the capacity filter. The
// differential tests below run it in lockstep with the production
// builder (stamp-and-window LRU gate + backend-specialized
// accumulation) and require bit-identical classification and histogram
// on randomized traces — the proof that the hot-path overhaul changed
// the cost of the pass, not its meaning.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

type refNode struct {
	block      uint64
	prev, next *refNode
}

type refStack struct {
	byBlock map[uint64]*refNode
	top     *refNode
}

func newRefStack() *refStack { return &refStack{byBlock: make(map[uint64]*refNode)} }

func (s *refStack) contains(b uint64) bool { _, ok := s.byBlock[b]; return ok }

func (s *refStack) push(b uint64) {
	n := &refNode{block: b, next: s.top}
	if s.top != nil {
		s.top.prev = n
	}
	s.top = n
	s.byBlock[b] = n
}

func (s *refStack) moveToTop(b uint64) {
	n := s.byBlock[b]
	if s.top == n {
		return
	}
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev = nil
	n.next = s.top
	s.top.prev = n
	s.top = n
}

func (s *refStack) walkAbove(b uint64, limit int, fn func(y uint64)) (reached bool) {
	target := s.byBlock[b]
	visited := 0
	for n := s.top; n != nil; n = n.next {
		if n == target {
			return true
		}
		if visited >= limit {
			return false
		}
		fn(n.block)
		visited++
	}
	panic("refStack: target not reachable")
}

// refBuild is the old Build: walk-with-increments, then a rollback
// re-walk on every capacity miss. It stores the histogram where
// NewBuilder does: flat up to MaxFlatBits, sparse beyond.
func refBuild(blocks []uint64, n, cacheBlocks int) *Profile {
	p := &Profile{N: n, CacheBlocks: cacheBlocks}
	if n > MaxFlatBits {
		p.Sparse = make(map[uint64]uint64)
	} else {
		p.Table = make([]uint64, 1<<uint(n))
	}
	inc := func(v uint64) {
		if p.Table != nil {
			p.Table[v]++
		} else {
			p.Sparse[v]++
		}
	}
	dec := func(v uint64) {
		if p.Table != nil {
			p.Table[v]--
		} else if c := p.Sparse[v]; c <= 1 {
			delete(p.Sparse, v)
		} else {
			p.Sparse[v] = c - 1
		}
	}
	mask := uint64(1)<<uint(n) - 1
	stack := newRefStack()
	for _, raw := range blocks {
		b := raw & mask
		p.Accesses++
		if !stack.contains(b) {
			p.Compulsory++
			stack.push(b)
			continue
		}
		reached := stack.walkAbove(b, cacheBlocks, func(y uint64) {
			inc(b ^ y)
			p.TotalPairs++
		})
		if reached {
			p.Candidates++
		} else {
			p.Capacity++
			stack.walkAbove(b, cacheBlocks, func(y uint64) {
				dec(b ^ y)
				p.TotalPairs--
			})
		}
		stack.moveToTop(b)
	}
	return p
}

// diffTrace draws one randomized trace with enough structure to hit
// all three classifications: strided aliasing runs, tight loops and
// uniform noise over a universe larger than the capacity filter.
func diffTrace(rng *rand.Rand) []uint64 {
	length := 50 + rng.Intn(1500)
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		switch rng.Intn(3) {
		case 0:
			stride := uint64(1) << uint(1+rng.Intn(6))
			base := uint64(rng.Intn(1 << 12))
			for i := uint64(0); i < uint64(4+rng.Intn(28)); i++ {
				blocks = append(blocks, base+i*stride)
			}
		case 1:
			set := 2 + rng.Intn(40)
			base := uint64(rng.Intn(1 << 12))
			for rep := 0; rep < 3; rep++ {
				for i := 0; i < set; i++ {
					blocks = append(blocks, base+uint64(i))
				}
			}
		default:
			for i := 0; i < 16; i++ {
				blocks = append(blocks, uint64(rng.Intn(1<<14)))
			}
		}
	}
	return blocks[:length]
}

// TestBuildDifferentialVsReference runs 1000 randomized trials of the
// production builder against the pre-overhaul reference, alternating
// flat and sparse backends, and requires identical classification
// counters and an identical histogram every time. A sparse trial
// builds at wideN over the blocks masked to n, so it must also match
// the flat build at n entry for entry.
func TestBuildDifferentialVsReference(t *testing.T) {
	const trials = 1000
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(40000 + trial)))
		n := 8 + rng.Intn(5)            // 8..12
		cacheBlocks := 1 + rng.Intn(96) // 1..96
		sparse := trial%2 == 1          // alternate backends
		blocks := diffTrace(rng)
		width := n
		if sparse {
			blocks = maskBlocks(blocks, n)
			width = wideN
		}
		got := Build(blocks, width, cacheBlocks)
		want := refBuild(blocks, width, cacheBlocks)
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("trial %d (n=%d cap=%d sparse=%v len=%d): %s",
				trial, width, cacheBlocks, sparse, len(blocks), d)
		}
		if sparse {
			if d := diffWidened(got, Build(blocks, n, cacheBlocks)); d != "" {
				t.Fatalf("trial %d (n=%d cap=%d len=%d): sparse at wideN vs flat: %s",
					trial, n, cacheBlocks, len(blocks), d)
			}
		}
	}
}

// finishBlocks feeds a whole trace through a builder — a test shorthand.
func (bd *Builder) finishBlocks(blocks []uint64) *Profile {
	for _, b := range blocks {
		bd.Add(b)
	}
	return bd.Finish()
}

// TestWalkCountProbe pins the overhaul's cost contract via the builder's
// hot-path probes: every conflict candidate walks exactly once, every
// visited stack entry contributes exactly one histogram increment (so a
// rollback re-walk is structurally impossible, not just avoided), and
// every capacity miss is resolved by the distance gate without touching
// the stack.
func TestWalkCountProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(5)
		cacheBlocks := 1 + rng.Intn(48)
		blocks := diffTrace(rng)
		bd := NewBuilder(n, cacheBlocks)
		p := bd.finishBlocks(blocks)
		st := bd.Stats()
		if st.CandidateWalks != p.Candidates {
			t.Fatalf("trial %d: %d walks for %d candidates", trial, st.CandidateWalks, p.Candidates)
		}
		var sum uint64
		for _, c := range p.Table {
			sum += c
		}
		if st.WalkSteps != p.TotalPairs || sum != p.TotalPairs {
			t.Fatalf("trial %d: %d walk steps, %d histogram increments for %d pairs — some visit did not become exactly one increment",
				trial, st.WalkSteps, sum, p.TotalPairs)
		}
		if st.GatedCapacityMisses != p.Capacity {
			t.Fatalf("trial %d: gate resolved %d of %d capacity misses", trial, st.GatedCapacityMisses, p.Capacity)
		}
	}
}

// TestCheckpointRoundTripsArenaStack cuts a trace at an arbitrary
// point, round-trips the builder through the checkpoint codec, and
// requires the restored gate to list the same blocks in the same
// recency order and the continued run to match an uninterrupted one
// bit for bit — the profile-side half of the listing round-trip
// contract (lru's FuzzStackRoundTrip is the other half).
func TestCheckpointRoundTripsArenaStack(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(4)
		cacheBlocks := 1 + rng.Intn(32)
		blocks := diffTrace(rng)
		cut := rng.Intn(len(blocks) + 1)
		ref := NewBuilder(n, cacheBlocks)
		bd := NewBuilder(n, cacheBlocks)
		for _, b := range blocks[:cut] {
			ref.Add(b)
			bd.Add(b)
		}
		var buf bytes.Buffer
		if err := bd.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		gotStack, wantStack := restored.stack.Blocks(), ref.stack.Blocks()
		if len(gotStack) != len(wantStack) {
			t.Fatalf("trial %d: restored stack holds %d blocks, want %d", trial, len(gotStack), len(wantStack))
		}
		for i := range wantStack {
			if gotStack[i] != wantStack[i] {
				t.Fatalf("trial %d: stack order diverges at %d: %#x vs %#x", trial, i, gotStack[i], wantStack[i])
			}
		}
		for _, b := range blocks[cut:] {
			ref.Add(b)
			restored.Add(b)
		}
		if d := diffProfiles(restored.Finish(), ref.Finish()); d != "" {
			t.Fatalf("trial %d (cut %d/%d): resumed run diverges: %s", trial, cut, len(blocks), d)
		}
	}
}

// FuzzBuilderCheckpointResume is the fuzz form of the arena/checkpoint
// round trip: the fuzzer picks the trace and the cut point, and the
// restored builder must finish the trace bit-identically to an
// uninterrupted one.
func FuzzBuilderCheckpointResume(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 2, 0, 1, 0, 3, 0, 2, 0}, uint16(2))
	var stride []byte
	for i := 0; i < 48; i++ {
		stride = append(stride, byte(i*8), byte(i>>5))
	}
	f.Add(stride, uint16(20))

	f.Fuzz(func(t *testing.T, data []byte, cutRaw uint16) {
		const n, cacheBlocks = 10, 16
		blocks := make([]uint64, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(blocks) < 2048; i += 2 {
			blocks = append(blocks, uint64(binary.LittleEndian.Uint16(data[i:])))
		}
		cut := 0
		if len(blocks) > 0 {
			cut = int(cutRaw) % (len(blocks) + 1)
		}
		ref := NewBuilder(n, cacheBlocks)
		bd := NewBuilder(n, cacheBlocks)
		for _, b := range blocks[:cut] {
			ref.Add(b)
			bd.Add(b)
		}
		var buf bytes.Buffer
		if err := bd.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip of a live builder rejected: %v", err)
		}
		for _, b := range blocks[cut:] {
			ref.Add(b)
			restored.Add(b)
		}
		if d := diffProfiles(restored.Finish(), ref.Finish()); d != "" {
			t.Fatalf("cut %d/%d: %s", cut, len(blocks), d)
		}
	})
}
