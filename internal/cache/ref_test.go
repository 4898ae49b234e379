package cache

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/trace"
)

// refLine is one line of the reference simulator: a tag and the valid
// bit a tagged cache needs to tell cold lines apart.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
}

// refCache is the tagged per-access simulator the flat, tagless Cache
// replaced, kept as the reference its differential test runs against.
// It indexes with Matrix.Apply (one popcount per column) and compares
// tags: its own tag function's value with the block-address bits above
// n appended.
type refCache struct {
	cfg   Config
	h     gf2.Matrix
	tag   gf2.Matrix
	sets  [][]refLine
	clock uint64
	stats Stats
	rng   uint64
}

func newRefCache(cfg Config) *refCache {
	sets := make([][]refLine, cfg.Sets())
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{cfg: cfg, h: cfg.Index, tag: refTag(cfg.Index), sets: sets, rng: 0x243F6A8885A308D3}
}

// refTag completes an index matrix of any column rank with the address
// bits outside col-space(H), so (index, tag) is injective on n-bit
// block addresses even when some sets are unreachable.
func refTag(h gf2.Matrix) gf2.Matrix {
	span := gf2.Span(h.N, h.Cols...)
	var positions []int
	for i := 0; i < h.N; i++ {
		if u := gf2.Unit(i); !span.Contains(u) {
			span = span.Extend(u)
			positions = append(positions, i)
		}
	}
	return gf2.BitSelect(h.N, positions)
}

func (c *refCache) access(addr uint64, isWrite bool) bool {
	block := addr / uint64(c.cfg.BlockBytes)
	c.clock++
	c.stats.Accesses++
	if isWrite {
		c.stats.Writes++
	}
	n := uint(c.h.N)
	low := gf2.Vec(block) & gf2.Mask(int(n))
	set := c.h.Apply(low)
	tag := block>>n<<n | uint64(c.tag.Apply(low))

	lines := c.sets[set]
	victim := 0
	haveFree := false
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			if c.cfg.Repl != FIFO {
				lines[i].used = c.clock
			}
			if isWrite {
				lines[i].dirty = true
			}
			return false
		}
		if !lines[i].valid && !haveFree {
			victim = i
			haveFree = true
		} else if !haveFree && lines[i].used < lines[victim].used {
			victim = i
		}
	}
	if !haveFree && c.cfg.Repl == Random && len(lines) > 1 {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victim = int(c.rng % uint64(len(lines)))
	}
	c.stats.Misses++
	if lines[victim].valid && lines[victim].dirty {
		c.stats.Writebacks++
	}
	lines[victim] = refLine{tag: tag, valid: true, dirty: isWrite, used: c.clock}
	return true
}

// randomFunc returns an n-bit index matrix with m set bits, of full
// rank or of rank below m.
func randomFunc(rng *rand.Rand, n, m int, deficient bool) gf2.Matrix {
	for {
		h := gf2.NewMatrix(n, m)
		for c := range h.Cols {
			h.Cols[c] = gf2.Vec(rng.Uint64()) & gf2.Mask(n)
		}
		if deficient {
			if m == 0 {
				return h
			}
			// Make one column the XOR of others (or zero).
			c := rng.Intn(m)
			h.Cols[c] = 0
			for d := range h.Cols {
				if d != c && rng.Intn(2) == 0 {
					h.Cols[c] ^= h.Cols[d]
				}
			}
			return h
		}
		if h.Rank() == m {
			return h
		}
	}
}

// refTrace draws reads and writes from a pool of addresses about three
// times the cache's lines. Pool members often differ from another only
// above the hashed bits, and the pool always holds the all-ones
// address, so at BlockBytes 1 the block 2^64−1 is simulated.
func refTrace(rng *rand.Rand, lines, accesses int) *trace.Trace {
	pool := []uint64{^uint64(0), ^uint64(0) - 1, 0}
	for len(pool) < 3*lines+8 {
		switch a := pool[rng.Intn(len(pool))]; rng.Intn(3) {
		case 0:
			pool = append(pool, rng.Uint64())
		case 1:
			pool = append(pool, a^1<<uint(rng.Intn(64)))
		default:
			pool = append(pool, a^uint64(rng.Intn(256))<<uint(rng.Intn(57)))
		}
	}
	tr := &trace.Trace{Name: "ref"}
	for i := 0; i < accesses; i++ {
		kind := trace.Read
		if rng.Intn(10) < 3 {
			kind = trace.Write
		}
		// Skew toward the front of the pool so some blocks get reused.
		j := rng.Intn(len(pool))
		if rng.Intn(2) == 0 {
			j = rng.Intn(lines + 3)
		}
		tr.Append(pool[j], kind)
	}
	return tr
}

// TestSimulateMatchesRefCache runs the flat, tagless simulator against
// refCache on seeded random traces of reads and writes: Ways 1, 2, 4
// and 8 under LRU, FIFO and Random, BlockBytes 1, 4 and 64, every n
// from 1 to 64, with full-rank and rank-deficient index matrices. Simulate's Stats, and the stateful Cache's per-access
// misses, must equal the reference's.
func TestSimulateMatchesRefCache(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	repls := []Replacement{LRU, FIFO, Random}
	blockSizes := []int{1, 4, 64}
	for n := 1; n <= 64; n++ {
		for d, deficient := range []bool{false, true} {
			for wi, ways := range []int{1, 2, 4, 8} {
				repl := repls[(n+wi)%len(repls)]
				bb := blockSizes[(n+d+wi)%len(blockSizes)]
				m := rng.Intn(min(n, 6) + 1)
				if deficient && m == 0 {
					m = 1
				}
				cfg := Config{SizeBytes: bb * ways << m, BlockBytes: bb, Ways: ways, Repl: repl,
					Index: randomFunc(rng, n, m, deficient)}
				name := fmt.Sprintf("n=%d/m=%d/ways=%d/%v/block=%d/deficient=%v", n, m, ways, repl, bb, deficient)
				tr := refTrace(rng, ways<<m, 1500)

				ref := newRefCache(cfg)
				c := mustNew(t, cfg)
				for i, a := range tr.Accesses {
					isWrite := a.Kind == trace.Write
					want := ref.access(a.Addr, isWrite)
					var got bool
					if isWrite {
						got = c.Write(a.Addr)
					} else {
						got = c.Access(a.Addr)
					}
					if got != want {
						t.Fatalf("%s: access %d (%#x): miss %v, reference %v", name, i, a.Addr, got, want)
					}
				}
				st, err := Simulate(context.Background(), tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st[0] != ref.stats || c.Stats() != ref.stats {
					t.Fatalf("%s: Simulate %+v, Cache %+v, reference %+v", name, st[0], c.Stats(), ref.stats)
				}
			}
		}
	}
}
