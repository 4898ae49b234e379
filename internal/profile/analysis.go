package profile

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"xoridx/internal/gf2"
	"xoridx/internal/lru"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// Conflict analysis: the profile's histogram says WHICH conflict
// vectors are hot; this pass says WHERE they come from, attributing
// each hot vector to the concrete block pairs that generated it. That
// turns the profile into an actionable diagnosis — the software-side
// alternative to reconfigurable hardware is padding one of the two
// implicated data structures.

// PairCount is one conflicting block pair with its event count.
type PairCount struct {
	BlockA, BlockB uint64 // block addresses, BlockA < BlockB
	Vector         uint64 // BlockA ^ BlockB (truncated to n bits)
	Count          uint64
}

// Analysis is the result of AnalyzeConflicts.
type Analysis struct {
	Profile  *Profile
	HotPairs []PairCount // descending by count
}

// AnalyzeConflicts profiles one pass of src (exactly like BuildStream's
// sequential engine, with the same block size and geometry arguments)
// and then, in a second pass, records the top conflicting block pairs
// whose XOR falls among the topVectors hottest conflict vectors.
// Neither pass holds the trace in memory; memory is bounded by the
// histogram and by the number of distinct hot pairs, which the
// hot-vector filter keeps small. Cancellation is checked once per
// trace chunk and returns a wrapped xerr.ErrCanceled.
func AnalyzeConflicts(ctx context.Context, src trace.Source, blockBytes, n, cacheBlocks, topVectors, topPairs int) (*Analysis, error) {
	p, err := BuildStream(ctx, src, blockBytes, n, cacheBlocks, Options{})
	if err != nil {
		return nil, err
	}
	hot := p.HotVectors(topVectors)
	hotSet := make(map[uint64]bool, len(hot))
	for _, vc := range hot {
		hotSet[uint64(vc.Vec)] = true
	}
	pass, err := src.Pass(ctx)
	if err != nil {
		return nil, err
	}
	defer pass.Close()
	// Second pass: the same gate and walk as the profile, but counting
	// pairs for hot vectors. The gate classifies each access before any
	// block is visited, so capacity misses contribute nothing and cost
	// no walk at all.
	pairs := make(map[[2]uint64]uint64)
	shift := uint(bits.TrailingZeros(uint(blockBytes)))
	mask := uint64(gf2.Mask(n))
	stack := lru.NewStack(cacheBlocks+1, p.stampBits())
	for {
		if err := xerr.Check(ctx); err != nil {
			return nil, err
		}
		chunk, err := pass.Chunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, a := range chunk {
			b := a.Addr >> shift & mask
			g, window := stack.Touch(b)
			if g != lru.GateWithin {
				continue
			}
			// The conflict walk, as in Builder.Add: count down the
			// window until it meets b, and lift b from there.
			d := 0
			for ; window[d] != b; d++ {
				if y := window[d]; hotSet[b^y] {
					key := [2]uint64{b, y}
					if key[0] > key[1] {
						key[0], key[1] = key[1], key[0]
					}
					pairs[key]++
				}
			}
			stack.Lift(d)
		}
	}
	out := &Analysis{Profile: p}
	for k, c := range pairs {
		out.HotPairs = append(out.HotPairs, PairCount{
			BlockA: k[0], BlockB: k[1], Vector: k[0] ^ k[1], Count: c,
		})
	}
	sort.Slice(out.HotPairs, func(i, j int) bool {
		if out.HotPairs[i].Count != out.HotPairs[j].Count {
			return out.HotPairs[i].Count > out.HotPairs[j].Count
		}
		if out.HotPairs[i].BlockA != out.HotPairs[j].BlockA {
			return out.HotPairs[i].BlockA < out.HotPairs[j].BlockA
		}
		return out.HotPairs[i].BlockB < out.HotPairs[j].BlockB
	})
	if len(out.HotPairs) > topPairs {
		out.HotPairs = out.HotPairs[:topPairs]
	}
	return out, nil
}

// Report renders a human-readable diagnosis: the hottest conflict
// vectors and the concrete block pairs behind them, with byte
// addresses for the given block size.
func (a *Analysis) Report(blockBytes int) string {
	var sb strings.Builder
	p := a.Profile
	fmt.Fprintf(&sb, "profiled %d accesses: %d compulsory, %d capacity-filtered, %d conflict candidates\n",
		p.Accesses, p.Compulsory, p.Capacity, p.Candidates)
	fmt.Fprintf(&sb, "hottest conflict vectors (block-address XOR):\n")
	for _, vc := range p.HotVectors(8) {
		fmt.Fprintf(&sb, "  %s  x%d\n", vc.Vec.StringN(p.N), vc.Count)
	}
	if len(a.HotPairs) > 0 {
		fmt.Fprintf(&sb, "hottest conflicting address pairs (block size %d B):\n", blockBytes)
		for _, pc := range a.HotPairs {
			fmt.Fprintf(&sb, "  %#08x <-> %#08x  (vector %#x)  x%d\n",
				pc.BlockA*uint64(blockBytes), pc.BlockB*uint64(blockBytes), pc.Vector, pc.Count)
		}
		fmt.Fprintf(&sb, "fix in software: pad/realign one structure of each pair; ")
		fmt.Fprintf(&sb, "fix in hardware: a XOR function whose null space excludes these vectors.\n")
	}
	return sb.String()
}
