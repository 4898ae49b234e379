package search

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
)

// construct2 runs the same search with and without the incremental
// evaluator and returns both results plus their Progress traces.
func construct2(t *testing.T, p *profile.Profile, m int, opt Options) (inc, brute Result, incTrace, bruteTrace []Progress) {
	t.Helper()
	optInc := opt
	optInc.Progress = func(pr Progress) { incTrace = append(incTrace, pr) }
	inc, err := ConstructCtx(context.Background(), p, m, optInc)
	if err != nil {
		t.Fatal(err)
	}
	optBrute := opt
	optBrute.NoIncremental = true
	optBrute.Progress = func(pr Progress) { bruteTrace = append(bruteTrace, pr) }
	brute, err = ConstructCtx(context.Background(), p, m, optBrute)
	if err != nil {
		t.Fatal(err)
	}
	return inc, brute, incTrace, bruteTrace
}

// TestIncrementalMatchesBrute is the differential oracle of the
// memoized evaluator: on every workload and option mix, the incremental
// climb must visit the same trajectory (the per-move Progress trace) and
// return the bit-identical result the brute-force Gray-walk climb does.
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
		{"parallel", Options{Family: hash.FamilyGeneralXOR, Workers: 4}},
	}
	for _, w := range workloads {
		p := profile.Build(w.blocks, w.n, 1<<uint(w.m))
		for _, v := range variants {
			inc, brute, incTrace, bruteTrace := construct2(t, p, w.m, v.opt)
			if !inc.Matrix.Equal(brute.Matrix) {
				t.Errorf("%s/%s: matrices differ:\n%v\nvs\n%v", w.name, v.name, inc.Matrix, brute.Matrix)
			}
			if inc.Estimated != brute.Estimated || inc.Baseline != brute.Baseline ||
				inc.Iterations != brute.Iterations || inc.Evaluated != brute.Evaluated {
				t.Errorf("%s/%s: metadata differs: %+v vs %+v", w.name, v.name, inc, brute)
			}
			if !reflect.DeepEqual(incTrace, bruteTrace) {
				t.Errorf("%s/%s: per-move progress traces diverge:\n%v\nvs\n%v",
					w.name, v.name, incTrace, bruteTrace)
			}
			if inc.Lookups >= brute.Lookups {
				t.Errorf("%s/%s: incremental lookups %d not below brute %d",
					w.name, v.name, inc.Lookups, brute.Lookups)
			}
		}
	}
}

// TestEvaluatorMatchesEstimateBasis unit-tests the evaluator against
// the profile estimator it replaces: for random hyperplanes, every
// table-served score must equal the brute-force Gray-walk estimate of
// the extended null space.
func TestEvaluatorMatchesEstimateBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 10
	blocks := make([]uint64, 2500)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1 << n))
	}
	p := profile.Build(blocks, n, 16)
	ev := newNullEvaluator(p)
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(n-2)
		var w gf2.Subspace
		for {
			vecs := make([]gf2.Vec, k)
			for i := range vecs {
				vecs[i] = gf2.Vec(rng.Uint64()) & gf2.Mask(n)
			}
			if w = gf2.Span(n, vecs...); w.Dim() == k {
				break
			}
		}
		tb := ev.table(w)
		if tb.sw != p.EstimateBasis(w.Basis) {
			t.Fatalf("trial %d: S(W) = %d, want %d", trial, tb.sw, p.EstimateBasis(w.Basis))
		}
		basis := append(append([]gf2.Vec(nil), w.Basis...), 0)
		for x := uint64(1); x < uint64(1)<<uint(len(tb.free)); x++ {
			rep := gf2.ScatterBits(x, tb.free)
			basis[k] = rep
			if got, want := ev.estimateAt(tb, x, rep), p.EstimateBasis(basis); got != want {
				t.Fatalf("trial %d x=%d: estimateAt = %d, EstimateBasis = %d", trial, x, got, want)
			}
			if got := ev.estimateExtend(tb, rep); got != p.EstimateBasis(basis) {
				t.Fatalf("trial %d x=%d: estimateExtend mismatch", trial, x)
			}
		}
	}
}

// TestMemoHitsAcrossRestarts pins the memo-sharing behaviour: restarts
// revisit hyperplanes of earlier climbs, so the shared memo must serve
// hits and the lookup total must grow far slower than the brute cost.
func TestMemoHitsAcrossRestarts(t *testing.T) {
	p := profile.Build(strideTrace(64, 32, 10), 12, 64)
	opt := Options{Family: hash.FamilyGeneralXOR, Restarts: 3, Seed: 11}
	inc, err := ConstructCtx(context.Background(), p, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if inc.MemoHits == 0 {
		t.Error("restarted search reported zero memo hits; the table memo is not shared across climbs")
	}
	optBrute := opt
	optBrute.NoIncremental = true
	brute, err := ConstructCtx(context.Background(), p, 6, optBrute)
	if err != nil {
		t.Fatal(err)
	}
	if brute.MemoHits != 0 {
		t.Errorf("brute-force search reported %d memo hits, want 0", brute.MemoHits)
	}
	if inc.Lookups*3 > brute.Lookups {
		t.Errorf("lookup reduction below 3x: incremental %d vs brute %d", inc.Lookups, brute.Lookups)
	}
	// Determinism of the accounting itself.
	again, err := ConstructCtx(context.Background(), p, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Lookups != inc.Lookups || again.MemoHits != inc.MemoHits {
		t.Errorf("lookup accounting not deterministic: %d/%d vs %d/%d",
			again.Lookups, again.MemoHits, inc.Lookups, inc.MemoHits)
	}
}

// TestQuickIncrementalEquivalence sweeps random (n, m, trace) triples
// through both evaluation paths.
func TestQuickIncrementalEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	check := func(nRaw, mRaw uint8, seed int64) bool {
		n := 5 + int(nRaw)%6 // 5..10
		m := 1 + int(mRaw)%(n-1)
		rr := rand.New(rand.NewSource(seed))
		blocks := make([]uint64, 1200)
		for i := range blocks {
			blocks[i] = uint64(rr.Intn(1 << uint(n)))
		}
		p := profile.Build(blocks, n, 1<<uint(m))
		inc, err := ConstructCtx(context.Background(), p, m, Options{Family: hash.FamilyGeneralXOR})
		if err != nil {
			t.Log(err)
			return false
		}
		brute, err := ConstructCtx(context.Background(), p, m, Options{Family: hash.FamilyGeneralXOR, NoIncremental: true})
		if err != nil {
			t.Log(err)
			return false
		}
		if !inc.Matrix.Equal(brute.Matrix) || inc.Estimated != brute.Estimated ||
			inc.Iterations != brute.Iterations || inc.Evaluated != brute.Evaluated {
			t.Logf("n=%d m=%d: %+v vs %+v", n, m, inc, brute)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
