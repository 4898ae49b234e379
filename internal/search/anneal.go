package search

import (
	"context"
	"math"
	"math/rand"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// Simulated annealing over null spaces — one of the "improved search
// phases" the paper's §3.3 anticipates ("It is likely that both phases
// of the algorithm can be improved, at the expense of execution
// speed"). Instead of evaluating the full neighbourhood and moving
// greedily, annealing samples one random neighbor per step and accepts
// worsening moves with probability exp(-Δ/T), escaping the local
// optima that stop the hill climber.

// AnnealOptions configures Anneal.
type AnnealOptions struct {
	// Steps is the number of proposal steps (default 20000).
	Steps int
	// InitialTemp sets T at step 0, in units of estimated misses;
	// default: 2% of the conventional baseline estimate.
	InitialTemp float64
	// Seed drives the random walk.
	Seed int64
}

// Anneal searches general XOR functions by simulated annealing and
// returns the best function found. Like Construct it starts from the
// conventional null space; unlike Construct the result is
// stochastic — run it with several seeds and keep the best.
// Cancellation is checked every ctxCheckEvery proposal steps.
func Anneal(ctx context.Context, p *profile.Profile, m int, opt AnnealOptions) (Result, error) {
	n := p.N
	if m <= 0 || m >= n {
		return Result{}, errOutOfRange(m, n)
	}
	if opt.Steps <= 0 {
		opt.Steps = 20000
	}
	d := n - m
	rng := rand.New(rand.NewSource(opt.Seed))
	cur := gf2.SpanUnits(n, m, n)
	curEst := p.EstimateSubspace(cur)
	baseline := curEst
	if opt.InitialTemp <= 0 {
		opt.InitialTemp = 0.02 * float64(baseline)
		if opt.InitialTemp < 1 {
			opt.InitialTemp = 1
		}
	}
	best := cur
	bestEst := curEst
	walkCost := uint64(1) << uint(d)
	res := Result{Baseline: baseline, Lookups: walkCost}
	for step := 0; step < opt.Steps; step++ {
		if step&(ctxCheckEvery-1) == 0 {
			if err := xerr.Check(ctx); err != nil {
				// Anytime contract: hand back the best state the walk
				// reached, tagged Degraded, alongside the error.
				res.Matrix = gf2.MatrixWithNullSpace(best)
				res.Estimated = bestEst
				res.Degraded = true
				return res, err
			}
		}
		// Exponential cooling to ~1% of the initial temperature.
		frac := float64(step) / float64(opt.Steps)
		temp := opt.InitialTemp * math.Pow(0.01, frac)

		// Random neighbor: random hyperplane of cur + random external
		// vector (the same neighbourhood structure as the hill climber).
		hp := cur.Hyperplane(uint64(rng.Intn(1<<uint(d)-1)) + 1)
		var v gf2.Vec
		for {
			v = gf2.Vec(rng.Uint64()) & gf2.Mask(n)
			if !cur.Contains(v) {
				break
			}
		}
		cand := hp.Extend(v)
		if cand.Dim() != d {
			continue
		}
		candEst := p.EstimateSubspace(cand)
		res.Evaluated++
		res.Lookups += walkCost
		delta := float64(candEst) - float64(curEst)
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur = cand
			curEst = candEst
			res.Iterations++
			if curEst < bestEst {
				best = cur
				bestEst = curEst
			}
		}
	}
	res.Matrix = gf2.MatrixWithNullSpace(best)
	res.Estimated = bestEst
	return res, nil
}
