package search

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
)

// referenceConstruct runs the general-XOR search with referenceClimb in
// place of climbNullSpace and returns the result and its per-move
// Progress trace. The profile's n must be small enough for a dense
// table of 2^n counts.
func referenceConstruct(p *profile.Profile, m int, opt Options) (Result, []Progress) {
	var trace []Progress
	opt.Progress = func(pr Progress) { trace = append(trace, pr) }
	s := &state{ctx: context.Background(), p: p, n: p.N, m: m, opt: opt}
	supp := make([]uint64, 1<<uint(p.N))
	for _, vc := range p.Support() {
		supp[vc.Vec] = vc.Count
	}
	for r := 0; r <= opt.Restarts; r++ {
		s.restart = r
		s.rng = rand.New(rand.NewSource(restartSeed(opt.Seed, r)))
		s.fold(s.referenceClimb(r, supp))
	}
	return s.finalize(p, m), trace
}

// referenceClimb is the per-candidate null-space climb: for every
// hyperplane W of the current null space, in Hyperplanes order, and
// every canonical coset representative rep of W outside it, in
// enumeration order over W's free positions, it scores span(W, rep) by
// a Gray-code walk of its members over supp, the histogram support
// spread into a dense table, and keeps the first strict minimum.
// Summing the support is what the transform climb does too: on the
// sketch backend it is a lower bound of the point queries.
func (s *state) referenceClimb(start int, supp []uint64) Result {
	n, d := s.n, s.n-s.m
	cur := gf2.SpanUnits(n, s.m, n)
	if start > 0 {
		cur = s.randomSubspace(d)
	}
	curEst := s.p.EstimateSubspace(cur)
	var res Result
	for {
		bestEst := curEst
		var best gf2.Subspace
		for _, w := range cur.Hyperplanes(nil) {
			free := gf2.FreePositions(n, w.Basis)
			basis := append(append([]gf2.Vec(nil), w.Basis...), 0)
			for x := uint64(1); x < 1<<uint(len(free)); x++ {
				rep := gf2.ScatterBits(x, free)
				if cur.Contains(rep) {
					continue
				}
				basis[d-1] = rep
				res.Evaluated++
				if est := walkSupport(supp, basis); est < bestEst {
					bestEst, best = est, w.Extend(rep)
				}
			}
		}
		if best.Basis == nil {
			break
		}
		cur, curEst = best, bestEst
		res.Iterations++
		s.emit(res.Iterations, res.Evaluated, curEst)
	}
	res.Matrix = gf2.MatrixWithNullSpace(cur)
	res.Estimated = curEst
	return res
}

// walkSupport sums supp over the members of span(basis), an
// independent basis, in Gray-code order.
func walkSupport(supp []uint64, basis []gf2.Vec) uint64 {
	sum := supp[0]
	var v gf2.Vec
	for i := uint64(1); i < 1<<uint(len(basis)); i++ {
		v ^= basis[bits.TrailingZeros64(i)]
		sum += supp[v]
	}
	return sum
}

// backendProfiles builds the same trace into a flat, a sparse and a
// sketch histogram. The width alone picks flat or sparse, so the sparse
// profile is the flat one moved into a map through the exported
// fields, at the same n. The sketch is small enough to collide and
// tracks few heavy hitters, so its point queries overestimate and its
// support is a strict subset.
func backendProfiles(t *testing.T, blocks []uint64, n, m int) map[string]*profile.Profile {
	t.Helper()
	flat := profile.Build(blocks, n, 1<<uint(m))
	sparse := *flat
	sparse.Table = nil
	sparse.Sparse = make(map[uint64]uint64)
	flat.ForEachNonZero(func(v gf2.Vec, c uint64) { sparse.Sparse[uint64(v)] = c })
	sketch, err := profile.BuildStream(context.Background(), profile.Blocks(blocks), n, 1<<uint(m),
		profile.Options{Sketch: &profile.SketchOptions{Width: 64, Depth: 2, TopK: 48, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*profile.Profile{"flat": flat, "sparse": &sparse, "sketch": sketch}
}

// sameClimb reports how got differs from the reference, or "".
func sameClimb(got, want Result, gotTrace, wantTrace []Progress) string {
	switch {
	case !got.Matrix.Equal(want.Matrix):
		return "matrices differ"
	case got.Estimated != want.Estimated || got.Baseline != want.Baseline ||
		got.Iterations != want.Iterations || got.Evaluated != want.Evaluated:
		return "metadata differs"
	case !reflect.DeepEqual(gotTrace, wantTrace):
		return "per-move progress traces diverge"
	}
	return ""
}

// hasAbsentResidue reports whether some nonzero residue modulo the
// conventional null space has no support.
func hasAbsentResidue(p *profile.Profile, m int) bool {
	nb := newNeighbourhood(p.Support(), p.N, p.N-m)
	nb.load(gf2.SpanUnits(p.N, m, p.N))
	return uint64(len(nb.row)-1) < uint64(1)<<uint(m)-1
}

// TestIncrementalMatchesBrute is the differential oracle of the
// transform climb: on every workload, backend and option mix it must
// walk the reference climb's trajectory (the per-move Progress trace)
// and return the bit-identical result.
func TestIncrementalMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randTrace := make([]uint64, 3000)
	for i := range randTrace {
		randTrace[i] = uint64(rng.Intn(1 << 12))
	}
	workloads := []struct {
		name   string
		blocks []uint64
		n, m   int
	}{
		{"stride64", strideTrace(64, 32, 10), 12, 6},
		{"stride16", strideTrace(16, 64, 5), 12, 6},
		{"random", randTrace, 12, 5},
	}
	variants := []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Family: hash.FamilyGeneralXOR}},
		{"restarts", Options{Family: hash.FamilyGeneralXOR, Restarts: 2, Seed: 7}},
	}
	absent := map[bool]bool{}
	for _, w := range workloads {
		for backend, p := range backendProfiles(t, w.blocks, w.n, w.m) {
			absent[hasAbsentResidue(p, w.m)] = true
			for _, v := range variants {
				want, wantTrace := referenceConstruct(p, w.m, v.opt)
				var gotTrace []Progress
				opt := v.opt
				opt.Progress = func(pr Progress) { gotTrace = append(gotTrace, pr) }
				got, err := Construct(context.Background(), p, w.m, opt)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameClimb(got, want, gotTrace, wantTrace); diff != "" {
					t.Errorf("%s/%s/%s: %s:\n%+v %v\nvs reference\n%+v %v",
						w.name, backend, v.name, diff, got, gotTrace, want, wantTrace)
				}
			}
		}
	}
	if !absent[true] || !absent[false] {
		t.Errorf("workloads cover absent residues %v, want both with and without", absent)
	}
}

// TestEvaluatorMatchesEstimateBasis checks every neighbour score of
// one transform against the profile estimator: for random null spaces
// N, every (φ, x) score must equal the Gray-walk estimate of
// span(W_φ, rep) on the flat and sparse backends.
func TestEvaluatorMatchesEstimateBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 10
	blocks := make([]uint64, 2500)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1 << n))
	}
	profiles := backendProfiles(t, blocks, n, 4)
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(n-2)
		var cur gf2.Subspace
		for {
			vecs := make([]gf2.Vec, d)
			for i := range vecs {
				vecs[i] = gf2.Vec(rng.Uint64()) & gf2.Mask(n)
			}
			if cur = gf2.Span(n, vecs...); cur.Dim() == d {
				break
			}
		}
		for _, backend := range []string{"flat", "sparse"} {
			p := profiles[backend]
			nb := newNeighbourhood(p.Support(), n, d)
			nb.load(cur)
			for phi := uint64(1); phi < 1<<uint(d); phi++ {
				w := cur.Hyperplane(phi)
				free := gf2.FreePositions(n, w.Basis)
				basis := append(append([]gf2.Vec(nil), w.Basis...), 0)
				for x := uint64(1); x < 1<<uint(len(free)); x++ {
					rep := gf2.ScatterBits(x, free)
					if cur.Contains(rep) {
						continue
					}
					basis[d-1] = rep
					if got, want := nb.score(phi, rep), p.EstimateBasis(basis); got != want {
						t.Fatalf("%s trial %d φ=%d x=%d: score = %d, EstimateBasis = %d",
							backend, trial, phi, x, got, want)
					}
				}
			}
		}
	}
}

// TestAccountingDeterministicAcrossRestarts pins that the search's own
// work counters are a function of its inputs.
func TestAccountingDeterministicAcrossRestarts(t *testing.T) {
	p := profile.Build(strideTrace(64, 32, 10), 12, 64)
	opt := Options{Family: hash.FamilyGeneralXOR, Restarts: 3, Seed: 11}
	first, err := Construct(context.Background(), p, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Construct(context.Background(), p, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Lookups != first.Lookups || again.MemoHits != first.MemoHits {
		t.Errorf("lookup accounting not deterministic: %d/%d vs %d/%d",
			again.Lookups, again.MemoHits, first.Lookups, first.MemoHits)
	}
}

// TestQuickIncrementalEquivalence sweeps random (n, m, trace, backend)
// draws through the transform climb and the reference climb.
func TestQuickIncrementalEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	check := func(nRaw, mRaw uint8, seed int64, restarts bool) bool {
		n := 5 + int(nRaw)%6 // 5..10
		m := 1 + int(mRaw)%(n-1)
		rr := rand.New(rand.NewSource(seed))
		blocks := make([]uint64, 1200)
		for i := range blocks {
			blocks[i] = uint64(rr.Intn(1 << uint(n)))
		}
		opt := Options{Family: hash.FamilyGeneralXOR}
		if restarts {
			opt.Restarts, opt.Seed = 2, seed
		}
		for backend, p := range backendProfiles(t, blocks, n, m) {
			want, wantTrace := referenceConstruct(p, m, opt)
			var gotTrace []Progress
			opt.Progress = func(pr Progress) { gotTrace = append(gotTrace, pr) }
			got, err := Construct(context.Background(), p, m, opt)
			if err != nil {
				t.Log(err)
				return false
			}
			if diff := sameClimb(got, want, gotTrace, wantTrace); diff != "" {
				t.Logf("%s n=%d m=%d: %s: %+v vs %+v", backend, n, m, diff, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
