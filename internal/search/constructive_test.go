package search

import (
	"context"
	"fmt"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// referenceConstructive is the constructive heuristic as it stood
// before it stepped through the permutation climb's neighbour generator
// and scorer: its own toggle loop, each covering edit priced by
// EstimateMatrix (2^(n−m) lookups per candidate).
func (s *state) referenceConstructive(int) (Result, error) {
	p, n, m := s.p, s.n, s.m
	maxExtra := s.maxExtra()
	h := gf2.Identity(n, m)
	var res Result
	cur := p.EstimateMatrix(h)
	var err error
	for _, vc := range p.HotVectors(hotVectors) {
		if err = xerr.Check(s.ctx); err != nil {
			break
		}
		v := vc.Vec
		if h.Apply(v) != 0 {
			continue
		}
		bestEst := cur
		bestCol, bestBit := -1, -1
		for c := 0; c < m; c++ {
			for b := m; b < n; b++ {
				u := gf2.Unit(b)
				if h.Cols[c]&u == 0 && extraCount(h.Cols[c], m) >= maxExtra {
					continue
				}
				h.Cols[c] ^= u
				if h.Apply(v) != 0 {
					est := p.EstimateMatrix(h)
					res.Evaluated++
					res.Lookups += uint64(1) << uint(n-m)
					if est < bestEst {
						bestEst = est
						bestCol, bestBit = c, b
					}
				}
				h.Cols[c] ^= u
			}
		}
		if bestCol >= 0 {
			h.Cols[bestCol] ^= gf2.Unit(bestBit)
			cur = bestEst
			res.Iterations++
		}
	}
	res.Matrix = h
	res.Estimated = cur
	return res, err
}

// referenceConstructiveRun runs referenceConstructive as Construct
// runs a search, baseline and confidence included.
func referenceConstructiveRun(t *testing.T, p *profile.Profile, m int, opt Options) Result {
	t.Helper()
	s := &state{ctx: context.Background(), p: p, n: p.N, m: m, opt: opt}
	res, err := s.referenceConstructive(0)
	if err != nil {
		t.Fatal(err)
	}
	s.fold(res)
	return s.finalize(p, m)
}

// streamProfile builds blocks into a profile through BuildStream with
// opt, at 1-byte blocks so the block numbers pass through unchanged.
func streamProfile(t *testing.T, blocks []uint64, n, m int, opt profile.Options) *profile.Profile {
	t.Helper()
	tr := &trace.Trace{}
	for _, b := range blocks {
		tr.Append(b, trace.Read)
	}
	p, err := profile.BuildStream(context.Background(), tr, 1, n, 1<<uint(m), opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConstructiveMatchesReference is the differential oracle of the
// constructive heuristic: on flat suite profiles at two cache sizes, a
// sparse profile at n = 25, a default sketch and a sampled profile,
// for MaxInputs 0, 1, 2 and 4, it must return the reference's matrix,
// estimate, baseline, confidence, move count and candidate count.
// Lookups count different work and are not compared.
func TestConstructiveMatchesReference(t *testing.T) {
	type named struct {
		name string
		p    *profile.Profile
		m    int
	}
	var profiles []named
	for _, bench := range []string{"fft", "susan"} {
		blocks := kernelBlocks(t, bench)
		for _, m := range []int{8, 10} {
			profiles = append(profiles, named{fmt.Sprintf("%s/%d", bench, 1<<m), profile.Build(blocks, 16, 1<<m), m})
		}
	}
	sparse := profile.Build(wideBlocks(25, 25), 25, 1<<10)
	if sparse.Sparse == nil {
		t.Fatal("n = 25 profile is not sparse")
	}
	fft := kernelBlocks(t, "fft")
	profiles = append(profiles,
		named{"wide/sparse/1024", sparse, 10},
		named{"fft/sketch/256", streamProfile(t, fft, 16, 8, profile.Options{Sketch: true}), 8},
		named{"fft/sampled-4/256", streamProfile(t, fft, 16, 8, profile.Options{Sample: profile.SampleOptions{K: 4, Seed: 7}}), 8},
	)
	moved, bound := 0, 0
	for _, pr := range profiles {
		var unbounded Result
		for _, maxIn := range []int{0, 1, 2, 4} {
			opt := Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: maxIn}
			name := fmt.Sprintf("%s/constructive-%d", pr.name, maxIn)
			want := referenceConstructiveRun(t, pr.p, pr.m, opt)
			got, err := Construct(context.Background(), pr.p, pr.m, opt)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !got.Matrix.Equal(want.Matrix):
				t.Errorf("%s: matrix\n%v\nwant\n%v", name, got.Matrix, want.Matrix)
			case got.Estimated != want.Estimated || got.Baseline != want.Baseline || got.Confidence != want.Confidence:
				t.Errorf("%s: estimated/baseline/confidence %d/%d/%+v, want %d/%d/%+v", name,
					got.Estimated, got.Baseline, got.Confidence, want.Estimated, want.Baseline, want.Confidence)
			case got.Iterations != want.Iterations || got.Evaluated != want.Evaluated:
				t.Errorf("%s: iterations/evaluated %d/%d, want %d/%d", name,
					got.Iterations, got.Evaluated, want.Iterations, want.Evaluated)
			}
			moved += got.Iterations
			if maxIn == 0 {
				unbounded = got
			} else if got.Evaluated != unbounded.Evaluated {
				bound++
			}
		}
	}
	if moved == 0 || bound == 0 {
		t.Errorf("%d moves, fan-in bound changed the candidates %d times: the differential compares too little", moved, bound)
	}
}
