package search

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// warmTestProfile mixes a strided conflict stream with random noise so
// the climb has real structure to descend.
func warmTestProfile(seed int64, n, m int) *profile.Profile {
	rng := rand.New(rand.NewSource(seed))
	var blocks []uint64
	for r := 0; r < 6; r++ {
		for i := 0; i < 48; i++ {
			blocks = append(blocks, uint64(i)<<uint(m))
		}
		for i := 0; i < 64; i++ {
			blocks = append(blocks, uint64(rng.Intn(1<<uint(n))))
		}
	}
	return profile.Build(blocks, n, 1<<uint(m))
}

// randomFullRank draws a random n×m matrix of full column rank.
func randomFullRank(rng *rand.Rand, n, m int) gf2.Matrix {
	mask := gf2.Mask(n)
	for {
		cols := make([]gf2.Vec, m)
		for i := range cols {
			cols[i] = gf2.Vec(rng.Uint64()) & mask
		}
		h := gf2.Matrix{N: n, M: m, Cols: cols}
		if h.Rank() == m {
			return h
		}
	}
}

// TestWarmStartFromConventionalEqualsCold pins the degenerate case:
// warm-starting from the conventional matrix is exactly the cold
// search (same starting null space, same deterministic descent), for
// single climbs and across random restarts.
func TestWarmStartFromConventionalEqualsCold(t *testing.T) {
	const n, m = 12, 6
	p := warmTestProfile(3, n, m)
	for _, restarts := range []int{0, 2} {
		opt := Options{Family: hash.FamilyGeneralXOR, Restarts: restarts, Seed: 77}
		cold, err := Construct(context.Background(), p, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Warm = gf2.Identity(n, m)
		warm, err := Construct(context.Background(), p, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Matrix.Equal(cold.Matrix) || warm.Estimated != cold.Estimated ||
			warm.Iterations != cold.Iterations || warm.Evaluated != cold.Evaluated {
			t.Fatalf("restarts=%d: warm-from-conventional diverged from cold: "+
				"est %d/%d iters %d/%d evals %d/%d", restarts,
				warm.Estimated, cold.Estimated, warm.Iterations, cold.Iterations,
				warm.Evaluated, cold.Evaluated)
		}
	}
}

// TestWarmStartNeverWorse pins the monotonicity that makes warm starts
// safe for the serving loop: steepest descent from H cannot end with a
// worse Eq. 4 estimate than H itself has on the same profile.
func TestWarmStartNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(5)
		m := 3 + rng.Intn(n-5)
		p := warmTestProfile(int64(trial), n, m)
		from := randomFullRank(rng, n, m)
		startEst := p.EstimateMatrix(from)
		res, err := Construct(context.Background(), p, m,
			Options{Family: hash.FamilyGeneralXOR, Warm: from})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Estimated > startEst {
			t.Fatalf("trial %d: warm start ended at estimate %d, worse than its start %d",
				trial, res.Estimated, startEst)
		}
	}
}

// TestWarmStartValidation pins the option domain: a warm start the
// null-space climb would use must match the geometry and have full
// rank, and every other search ignores Warm, giving the cold result.
func TestWarmStartValidation(t *testing.T) {
	const n, m = 10, 5
	p := warmTestProfile(1, n, m)
	// A random full-rank start, so a search that used it would differ.
	from := randomFullRank(rand.New(rand.NewSource(1)), n, m)
	bad := []struct {
		name string
		from gf2.Matrix
	}{
		{"wrong geometry", gf2.Identity(n, m-1)},
		{"rank deficient", gf2.Matrix{N: n, M: m, Cols: make([]gf2.Vec, m)}},
	}
	for _, tc := range bad {
		opt := Options{Family: hash.FamilyGeneralXOR, Warm: tc.from}
		if _, err := Construct(context.Background(), p, m, opt); !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", tc.name, err)
		}
	}
	ignored := []struct {
		name string
		opt  Options
	}{
		{"permutation family", Options{Family: hash.FamilyPermutation}},
		{"fan-in bound", Options{Family: hash.FamilyGeneralXOR, MaxInputs: 2}},
	}
	for _, tc := range ignored {
		cold, err := Construct(context.Background(), p, m, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		tc.opt.Warm = from
		warm, err := Construct(context.Background(), p, m, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: Warm is ignored, want the cold result %+v, got %+v", tc.name, cold, warm)
		}
	}
}
