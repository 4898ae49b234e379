package profile

import (
	"fmt"
	"sort"
	"strings"

	"xoridx/internal/lru"
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

// AnalyzeConflicts profiles the block stream (exactly like Build) and
// additionally records the top conflicting block pairs whose XOR falls
// among the topVectors hottest conflict vectors. Memory is bounded by
// the number of distinct hot pairs, which the hot-vector filter keeps
// small.
func AnalyzeConflicts(blocks []uint64, n, cacheBlocks, topVectors, topPairs int) *Analysis {
	p := Build(blocks, n, cacheBlocks)
	hot := p.HotVectors(topVectors)
	hotSet := make(map[uint64]bool, len(hot))
	for _, vc := range hot {
		hotSet[uint64(vc.Vec)] = true
	}
	// Second pass: the same gate as Build, but counting pairs for hot
	// vectors. The gate classifies each access before any block is
	// visited, so capacity misses contribute nothing and cost no walk
	// at all.
	pairs := make(map[[2]uint64]uint64)
	mask := p.maskValue()
	stack := lru.NewStack(cacheBlocks+1, p.stampBits())
	for _, raw := range blocks {
		b := raw & mask
		_, above := stack.Touch(b)
		for _, y := range above {
			if hotSet[b^y] {
				key := [2]uint64{b, y}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				pairs[key]++
			}
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
	return out
}

// maskValue exposes the n-bit mask for the analysis pass.
func (p *Profile) maskValue() uint64 {
	return uint64(1)<<uint(p.N) - 1
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
