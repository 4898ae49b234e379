package profile

// The sketch histogram backend (DESIGN.md §17) is a Misra–Gries
// summary: the sparse map, capped at a fixed number K of entries. For n
// well past 32 bits a long trace can touch more distinct conflict
// vectors than an exact map can afford (the support is bounded only by
// accesses × cacheBlocks); the capped map never holds more than K,
// whatever the support.
//
// When an increment grows the map past K entries, every count drops by
// one, the zeros go, and Slack grows by one: K+1 distinct vectors lost
// a unit each, the arriving one among them. A merge adds the two maps
// and, past the cap, subtracts the (K+1)-th largest count c from every
// entry and prunes (Agarwal et al., "Mergeable Summaries", PODS 2012),
// so Slack becomes s₁ + s₂ + c. Either way, for every vector v and any
// worker count,
//
//	At(v) <= true(v) <= At(v) + Slack
//	Slack·(K+1) <= TotalPairs − Σ_v At(v)
//
// so a point query is low by at most TotalPairs/(K+1), a deterministic
// bound. Every count undercounts, so every Eq. 4 estimate on a sketch
// profile — a sum of counts over a null space — is a lower bound of
// the exact one. A support that fits under the cap is never pruned:
// the sketch is then the exact sparse histogram. Slices prune on their
// own and again at every join, so a sharded sketch build is
// bound-identical to a sequential one, not bit-identical.

import "slices"

// SketchEntries is the sketch backend's entry cap K. Its bound
// TotalPairs/(K+1) is no weaker than that of a 2^16-wide count-min
// row, ε = e/2^16, and K × 48 bytes is 1.2 MB of histogram.
const SketchEntries = 24576

// decrement is the Misra–Gries step of a capped map that has just
// grown past its cap: one unit off every count, the zeros dropped.
func (p *Profile) decrement() {
	for v, c := range p.Sparse {
		if c == 1 {
			delete(p.Sparse, v)
		} else {
			p.Sparse[v] = c - 1
		}
	}
	p.Slack++
}

// mergeCapped adds o's capped map into p's and, when the sum holds more
// than the cap, subtracts its (K+1)-th largest count from every entry,
// dropping those it empties.
func (p *Profile) mergeCapped(o *Profile) {
	for v, c := range o.Sparse {
		p.Sparse[v] += c
	}
	p.Slack += o.Slack
	if len(p.Sparse) <= p.entryCap {
		return
	}
	counts := make([]uint64, 0, len(p.Sparse))
	for _, c := range p.Sparse {
		counts = append(counts, c)
	}
	slices.Sort(counts)
	cut := counts[len(counts)-p.entryCap-1]
	for v, c := range p.Sparse {
		if c <= cut {
			delete(p.Sparse, v)
		} else {
			p.Sparse[v] = c - cut
		}
	}
	p.Slack += cut
}
