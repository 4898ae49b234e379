package profile

// Sampled profiling (DESIGN.md §17). A full Fig. 1 pass walks the
// window above every conflict candidate into the histogram; on
// billion-access traces those walks dominate the build. Sampling keeps
// the classification machinery exact — every access still runs through
// the distance gate, so the stamps, the window and the
// Compulsory/Capacity/Candidates counters are bit-identical to an exact
// pass — but only every k-th conflict candidate's reuse interval is
// counted into the histogram. A skipped candidate is still lifted to
// the front of the window, from the position the gate's binary search
// (lru.Stack.Find) reports, so later reuse distances are unaffected by
// the skipping; it just skips the counting walk.
//
// The histogram therefore holds a deterministic ~1/k subsample of the
// conflict pairs, and every Eq. 4 estimate read from it is a raw count
// M that scales to the exact-pass value as k·M. The error model is the
// birthday-paradox collision statistic: conflict pairs hitting a null
// space N(H) are rare, independent-ish collision events, so the sampled
// hit count M is well approximated as Poisson with mean μ/k (μ the
// exact count). A Poisson's standard deviation is the square root of
// its mean, giving the two-sided normal interval
//
//	μ ∈ k·M ± z·k·√M            (z = 1.96 at 95%)
//
// whose relative half-width z/√M shrinks as the estimate grows — the
// estimates that decide a climb (the large ones) are exactly the ones
// sampled most accurately. The argmin over H is computed on raw counts:
// scaling by the constant k preserves ordering, so the search layer
// never needs to know it is looking at a subsample.
//
// The candidate ordinal that decides sampling is global to the pass
// (the j-th conflict candidate of the stream), which a cold slice
// cannot know; BuildStream therefore runs a sampled build as one slice
// whatever Options.Workers says. A snapshot carries
// the ordinal (checkpoint.go), so a resumed sampled pass walks exactly
// the candidates the uninterrupted one would.

import (
	"fmt"
	"math"
	"strings"

	"xoridx/internal/xerr"
)

// SampleOptions configures sampled profiling. K <= 1 means exact (no
// sampling); K = k profiles every k-th conflict candidate, phase-offset
// deterministically from Seed so repeated runs are reproducible and
// different seeds sample different strata.
type SampleOptions struct {
	K    uint64
	Seed uint64
}

// enabled reports whether the options actually sample.
func (o SampleOptions) enabled() bool { return o.K > 1 }

// Same reports whether two configurations sample the same subset: both
// exact (K <= 1, whatever the seed), or equal.
func (o SampleOptions) Same(b SampleOptions) bool {
	return !o.enabled() && !b.enabled() || o == b
}

// sampling returns the builder's sampling configuration, the zero value
// when exact.
func (bd *Builder) sampling() SampleOptions {
	return SampleOptions{K: bd.sampleK, Seed: bd.p.SampleSeed}
}

// setSampling arms the builder's sampling gate at its candidate ordinal
// (0 for a cold builder, the snapshot's for a restored one). A no-op
// for K <= 1.
func (bd *Builder) setSampling(opt SampleOptions) {
	if !opt.enabled() {
		return
	}
	bd.sampleK = opt.K
	bd.p.SampleK = opt.K
	bd.p.SampleSeed = opt.Seed
	// Profiled candidate ordinals (1-indexed) are a deterministic phase
	// in [1, K] derived from the seed, then every K-th after it; the
	// next one is the smallest past the ordinal already counted.
	phase := splitmix64(opt.Seed)%opt.K + 1
	bd.sampleNext = phase
	if c := bd.sampleCount; c >= phase {
		bd.sampleNext = phase + ((c-phase)/opt.K+1)*opt.K
	}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mix used to derive the sampling phase without any
// dependency.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Confidence qualifies an Eq. 4 estimate read from an approximate
// profile: the scaled estimate, the half-width of its sampling
// confidence interval and the level the interval holds at, and the
// sketch backend's slack. For a sampled profile (K > 1) the margin is
// nonzero; for an unsampled one it is zero and Level is 1. On a sketch
// whose map has pruned (Slack > 0) every count is low by at most Slack,
// so the estimate is a lower bound. The estimate is exact only when
// K <= 1 and Slack = 0.
type Confidence struct {
	Estimate uint64  // scaled estimate k·M (equals the raw count when unsampled)
	Raw      uint64  // M, the raw (sampled) histogram sum that produced it
	K        uint64  // sampling factor (1 = unsampled)
	Margin   uint64  // CI half-width: ceil(z·k·√M); 0 when unsampled
	RelError float64 // Margin / Estimate, 0 when Estimate is 0
	Level    float64 // two-sided confidence level of the interval
	Slack    uint64  // the profile's Slack: each raw count is low by at most this; 0 on the exact backends
}

// The z-score and level of the reported interval (two-sided 95%).
const (
	confidenceZ     = 1.96
	confidenceLevel = 0.95
)

// Scale returns the factor raw histogram sums must be multiplied by to
// estimate exact-pass counts: SampleK for a sampled profile, 1 for an
// exact one.
func (p *Profile) Scale() uint64 {
	if p.SampleK > 1 {
		return p.SampleK
	}
	return 1
}

// ConfidenceFor wraps a raw Eq. 4 estimate (as returned by
// EstimateSubspace and friends on this profile) in its sampling
// confidence interval — see the package comment in sample.go for the
// derivation — and carries the profile's sketch slack along.
func (p *Profile) ConfidenceFor(raw uint64) Confidence {
	k := p.Scale()
	c := Confidence{Estimate: raw * k, Raw: raw, K: k, Level: 1, Slack: p.Slack}
	if k == 1 {
		return c
	}
	c.Level = confidenceLevel
	c.Margin = uint64(math.Ceil(confidenceZ * float64(k) * math.Sqrt(float64(raw))))
	if c.Estimate > 0 {
		c.RelError = float64(c.Margin) / float64(c.Estimate)
	}
	return c
}

// String renders "X (exact)" only for an exact estimate. A sampled one
// reads "X ± ε (95% CI, k=16)", and one read off a sketch that has
// pruned states that it is a lower bound and by how much each count
// may be low: "X (lower bound, slack S)", or both notes in one
// parenthesis.
func (c Confidence) String() string {
	est := fmt.Sprintf("%d", c.Estimate)
	var notes []string
	if c.K > 1 {
		est += fmt.Sprintf(" ± %d", c.Margin)
		notes = append(notes, fmt.Sprintf("%.0f%% CI, k=%d", c.Level*100, c.K))
	}
	if c.Slack > 0 {
		notes = append(notes, fmt.Sprintf("lower bound, slack %d", c.Slack))
	}
	if len(notes) == 0 {
		notes = append(notes, "exact")
	}
	return fmt.Sprintf("%s (%s)", est, strings.Join(notes, "; "))
}

// checkSamplingCompatible verifies two profiles agree on sampling
// before a merge: mixing subsample rates (or phases) would make the
// combined histogram scale-inconsistent.
func checkSamplingCompatible(p, o *Profile) error {
	if p.Scale() != o.Scale() {
		return fmt.Errorf("profile: cannot merge sampling k=%d into k=%d: %w",
			o.Scale(), p.Scale(), xerr.ErrProfileMismatch)
	}
	if p.SampleK > 1 && p.SampleSeed != o.SampleSeed {
		return fmt.Errorf("profile: cannot merge sampled profiles with different seeds: %w",
			xerr.ErrProfileMismatch)
	}
	return nil
}
