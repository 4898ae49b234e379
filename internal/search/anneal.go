package search

import (
	"math"
	"math/rand"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// Simulated annealing over null spaces — one of the "improved search
// phases" the paper's §3.3 anticipates ("It is likely that both phases
// of the algorithm can be improved, at the expense of execution
// speed"). Instead of evaluating the full neighbourhood and moving
// greedily, annealing samples one random neighbor per step and accepts
// worsening moves with probability exp(-Δ/T), escaping the local
// optima that stop the hill climber.

// annealSteps is the number of proposal steps; the starting
// temperature is annealTemp times the conventional baseline estimate
// (at least 1), cooled exponentially to 1% of it.
const (
	annealSteps = 20000
	annealTemp  = 0.02
)

// anneal searches general XOR functions by simulated annealing from the
// conventional null space, drawing from an RNG seeded with Options.Seed,
// and returns the best function visited. Unlike the hill climber the
// result is stochastic: run it with several seeds and keep the best.
// Cancellation is checked every ctxCheckEvery proposal steps.
func (s *state) anneal(int) (Result, error) {
	p, n, d := s.p, s.n, s.n-s.m
	rng := rand.New(rand.NewSource(s.opt.Seed))
	cur := gf2.SpanUnits(n, s.m, n)
	curEst := p.EstimateSubspace(cur)
	temp0 := max(annealTemp*float64(curEst), 1)
	best := cur
	bestEst := curEst
	walkCost := uint64(1) << uint(d)
	var res Result
	var err error
	for step := 0; step < annealSteps; step++ {
		if step&(ctxCheckEvery-1) == 0 {
			if err = xerr.Check(s.ctx); err != nil {
				break // anytime contract: hand back the best state reached
			}
		}
		// Exponential cooling to ~1% of the initial temperature.
		temp := temp0 * math.Pow(0.01, float64(step)/annealSteps)

		// Random neighbor: random hyperplane of cur + random external
		// vector (the same neighbourhood structure as the hill climber).
		// The hyperplane has dimension d−1 and lies in cur, which v
		// avoids, so the neighbour always has dimension d.
		hp := cur.Hyperplane(uint64(rng.Intn(1<<uint(d)-1)) + 1)
		var v gf2.Vec
		for {
			v = gf2.Vec(rng.Uint64()) & gf2.Mask(n)
			if !cur.Contains(v) {
				break
			}
		}
		cand := hp.Extend(v)
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
	return res, err
}
