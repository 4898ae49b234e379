package search

import (
	"context"
	"math/rand"
	"testing"

	"xoridx/internal/cache"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/workloads"
)

// strideTrace builds the classic conflict workload: walks a matrix
// column-wise with a power-of-two stride, interleaved with a second
// stream, then repeats.
func strideTrace(stride, count, reps int) []uint64 {
	var blocks []uint64
	for r := 0; r < reps; r++ {
		for i := 0; i < count; i++ {
			blocks = append(blocks, uint64(i*stride))
		}
	}
	return blocks
}

func TestConstructValidation(t *testing.T) {
	p := profile.Build([]uint64{1, 2, 3}, 12, 64)
	if _, err := Construct(context.Background(), p, 0, Options{}); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := Construct(context.Background(), p, 12, Options{}); err == nil {
		t.Error("m=n should fail")
	}
	if _, err := Construct(context.Background(), p, 6, Options{MaxInputs: -1}); err == nil {
		t.Error("negative MaxInputs should fail")
	}
	if _, err := Construct(context.Background(), p, 6, Options{Family: hash.Family(99)}); err == nil {
		t.Error("unknown family should fail")
	}
}

func TestGeneralXORSolvesStrideThrash(t *testing.T) {
	// 64-set cache, stride 64: everything lands in set 0 under modulo.
	// The search must find a function with (near-)zero estimate.
	const m, n = 6, 12
	blocks := strideTrace(64, 32, 10)
	p := profile.Build(blocks, n, 1<<m)
	res, err := Construct(context.Background(), p, m, Options{Family: hash.FamilyGeneralXOR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == 0 {
		t.Fatal("baseline must see conflicts")
	}
	if res.Estimated != 0 {
		t.Fatalf("search should eliminate all stride conflicts: est %d (baseline %d)", res.Estimated, res.Baseline)
	}
	// Verify with exact simulation: only compulsory misses remain.
	f, err := hash.NewXOR(res.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	misses := dmMisses(t, blocks, f)
	if misses != 32 {
		t.Fatalf("exact misses %d, want 32 compulsory", misses)
	}
	if res.Improvement() != 1.0 {
		t.Fatalf("improvement = %v", res.Improvement())
	}
}

func TestPermutationSolvesStrideThrash(t *testing.T) {
	const m, n = 6, 12
	blocks := strideTrace(64, 32, 10)
	p := profile.Build(blocks, n, 1<<m)
	for _, maxIn := range []int{2, 4, 0} {
		res, err := Construct(context.Background(), p, m, Options{Family: hash.FamilyPermutation, MaxInputs: maxIn})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Matrix.IsPermutationBased() {
			t.Fatalf("maxIn=%d: result not permutation-based:\n%v", maxIn, res.Matrix)
		}
		if maxIn > 0 && res.Matrix.MaxInputs() > maxIn {
			t.Fatalf("maxIn=%d: matrix uses %d inputs", maxIn, res.Matrix.MaxInputs())
		}
		if res.Estimated != 0 {
			t.Fatalf("maxIn=%d: estimate %d, want 0 (baseline %d)", maxIn, res.Estimated, res.Baseline)
		}
	}
}

func TestPermutationOneInputIsModulo(t *testing.T) {
	p := profile.Build(strideTrace(64, 16, 4), 12, 64)
	res, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyPermutation, MaxInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matrix.Equal(gf2.Identity(12, 6)) {
		t.Fatal("1-input permutation function must be the identity")
	}
	if res.Estimated != res.Baseline {
		t.Fatal("estimate must equal baseline")
	}
}

func TestBitSelectFindsHighBits(t *testing.T) {
	// Stride-64 pattern over 32 blocks: the distinguishing bits are 6..10.
	// Bit selection must pick them up and eliminate the thrash.
	const m, n = 6, 12
	blocks := strideTrace(64, 32, 10)
	p := profile.Build(blocks, n, 1<<m)
	res, err := Construct(context.Background(), p, m, Options{Family: hash.FamilyBitSelect})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matrix.IsBitSelecting() {
		t.Fatalf("result not bit-selecting:\n%v", res.Matrix)
	}
	if res.Estimated != 0 {
		t.Fatalf("bit-select estimate %d, want 0", res.Estimated)
	}
}

func TestXORBeatsBitSelectOnXorPattern(t *testing.T) {
	// Two interleaved streams at addresses i and i^stride-pattern that
	// no bit-selection can separate but a XOR can: pairs (x, x + C)
	// where the conflict vector varies across pairs yet spans a small
	// subspace not aligned to coordinates.
	const m, n = 4, 10
	var blocks []uint64
	// Conflict vectors v1 = 0b1100010000 and v2 = 0b0110100000 span a
	// 2-dim space; pairs thrash under modulo (low 4 bits equal).
	v1, v2 := uint64(0b11_0001_0000), uint64(0b01_1010_0000)
	base := []uint64{0x005, 0x00A, 0x00F}
	for rep := 0; rep < 20; rep++ {
		for _, b := range base {
			blocks = append(blocks, b, b^v1, b, b^v2, b, b^v1^v2)
		}
	}
	p := profile.Build(blocks, n, 1<<m)
	bs, err := Construct(context.Background(), p, m, Options{Family: hash.FamilyBitSelect})
	if err != nil {
		t.Fatal(err)
	}
	gx, err := Construct(context.Background(), p, m, Options{Family: hash.FamilyGeneralXOR})
	if err != nil {
		t.Fatal(err)
	}
	if gx.Estimated > bs.Estimated {
		t.Fatalf("general XOR (%d) should not lose to bit-select (%d)", gx.Estimated, bs.Estimated)
	}
	if gx.Estimated != 0 {
		t.Fatalf("general XOR should zero this pattern, got %d", gx.Estimated)
	}
}

func TestSearchNeverWorseThanBaselineEstimate(t *testing.T) {
	// Hill climbing starts at the conventional function, so by
	// construction the estimate can only improve.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		blocks := make([]uint64, 3000)
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(1 << 10))
		}
		p := profile.Build(blocks, 12, 64)
		for _, fam := range []hash.Family{hash.FamilyBitSelect, hash.FamilyPermutation, hash.FamilyGeneralXOR} {
			res, err := Construct(context.Background(), p, 6, Options{Family: fam, MaxInputs: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Estimated > res.Baseline {
				t.Fatalf("family %v: estimate %d worse than baseline %d", fam, res.Estimated, res.Baseline)
			}
		}
	}
}

func TestRestartsOnlyImprove(t *testing.T) {
	blocks := strideTrace(16, 64, 5)
	p := profile.Build(blocks, 12, 64)
	base, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyPermutation, MaxInputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyPermutation, MaxInputs: 2, Restarts: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if re.Estimated > base.Estimated {
		t.Fatalf("restarts made things worse: %d vs %d", re.Estimated, base.Estimated)
	}
	if re.Evaluated <= base.Evaluated {
		t.Fatal("restarts should evaluate more candidates")
	}
}

func TestGeneralXORWithInputLimitRespectsBound(t *testing.T) {
	blocks := strideTrace(64, 32, 10)
	p := profile.Build(blocks, 12, 64)
	res, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyGeneralXOR, MaxInputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.MaxInputs() > 2 {
		t.Fatalf("matrix exceeds 2 inputs:\n%v", res.Matrix)
	}
	if res.Matrix.Rank() != 6 {
		t.Fatal("input limiting lost rank")
	}
}

func TestResultMatrixAlwaysFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([]uint64, 2000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(4096))
	}
	p := profile.Build(blocks, 12, 256)
	for _, fam := range []hash.Family{hash.FamilyBitSelect, hash.FamilyPermutation, hash.FamilyGeneralXOR} {
		for _, maxIn := range []int{0, 2, 4} {
			if fam == hash.FamilyBitSelect && maxIn != 0 {
				continue
			}
			res, err := Construct(context.Background(), p, 8, Options{Family: fam, MaxInputs: maxIn})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matrix.Rank() != 8 {
				t.Fatalf("family %v maxIn %d: rank %d", fam, maxIn, res.Matrix.Rank())
			}
			if _, err := hash.NewXOR(res.Matrix); err != nil {
				t.Fatalf("result not usable as hash: %v", err)
			}
		}
	}
}

func TestImprovementZeroBaseline(t *testing.T) {
	var r Result
	if r.Improvement() != 0 {
		t.Fatal("zero baseline improvement must be 0")
	}
}

func TestAnnealFindsStrideSolution(t *testing.T) {
	blocks := strideTrace(64, 32, 10)
	p := profile.Build(blocks, 12, 64)
	res, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == 0 {
		t.Fatal("baseline must see conflicts")
	}
	if res.Estimated != 0 {
		t.Fatalf("annealing should zero the stride pattern, got %d", res.Estimated)
	}
	if res.Matrix.Rank() != 6 {
		t.Fatal("result must be full rank")
	}
	if _, err := hash.NewXOR(res.Matrix); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealNeverReportsWorseThanVisited(t *testing.T) {
	// The returned estimate is the best visited, so re-estimating the
	// returned matrix must reproduce it exactly.
	rng := rand.New(rand.NewSource(3))
	blocks := make([]uint64, 3000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(2048))
	}
	p := profile.Build(blocks, 12, 64)
	res, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.EstimateMatrix(res.Matrix); got != res.Estimated {
		t.Fatalf("returned matrix estimates to %d, reported %d", got, res.Estimated)
	}
	if res.Estimated > res.Baseline {
		t.Fatalf("annealing (%d) must never end above the baseline (%d): best-so-far is tracked", res.Estimated, res.Baseline)
	}
}

func TestAnnealValidation(t *testing.T) {
	p := profile.Build([]uint64{1, 2}, 10, 8)
	opt := Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal}
	if _, err := Construct(context.Background(), p, 0, opt); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := Construct(context.Background(), p, 10, opt); err == nil {
		t.Fatal("m=n must fail")
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	blocks := strideTrace(32, 16, 5)
	p := profile.Build(blocks, 12, 64)
	opt := Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal, Seed: 11}
	a, err := Construct(context.Background(), p, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Construct(context.Background(), p, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Matrix.Equal(b.Matrix) || a.Estimated != b.Estimated {
		t.Fatal("same seed must reproduce the same result")
	}
}

func TestConstructiveCoversStride(t *testing.T) {
	blocks := strideTrace(64, 32, 10)
	p := profile.Build(blocks, 12, 64)
	res, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matrix.IsPermutationBased() || res.Matrix.MaxInputs() > 2 {
		t.Fatalf("constructive result outside family:\n%v", res.Matrix)
	}
	if res.Estimated > res.Baseline/10 {
		t.Fatalf("constructive heuristic left %d of %d estimated misses", res.Estimated, res.Baseline)
	}
	// It must never worsen the conventional baseline (edits are only
	// accepted when they lower the estimate).
	if res.Estimated > res.Baseline {
		t.Fatal("constructive result worse than baseline")
	}
}

func TestConstructiveVsHillClimb(t *testing.T) {
	// The full search may beat the constructive heuristic but never by
	// going above it on these structured traces... the reverse can
	// happen (constructive is greedier); assert both stay sane.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3; trial++ {
		blocks := make([]uint64, 4000)
		for i := range blocks {
			blocks[i] = uint64(i%64)*64 + uint64(rng.Intn(4))
		}
		p := profile.Build(blocks, 12, 64)
		cons, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: 2})
		if err != nil {
			t.Fatal(err)
		}
		hill, err := Construct(context.Background(), p, 6, Options{Family: hash.FamilyPermutation, MaxInputs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if cons.Estimated > cons.Baseline || hill.Estimated > hill.Baseline {
			t.Fatal("a heuristic went above the baseline estimate")
		}
		// The search should be at least as good as the cheap heuristic,
		// allowing a little slack for greedy luck.
		if float64(hill.Estimated) > 1.1*float64(cons.Estimated)+10 {
			t.Errorf("trial %d: hill climb (%d) clearly worse than constructive (%d)",
				trial, hill.Estimated, cons.Estimated)
		}
	}
}

func TestConstructiveValidation(t *testing.T) {
	p := profile.Build([]uint64{1}, 10, 8)
	opt := Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: 2}
	if _, err := Construct(context.Background(), p, 0, opt); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := Construct(context.Background(), p, 10, opt); err == nil {
		t.Fatal("m=n must fail")
	}
}

func TestSearchAtWiderAddressSpace(t *testing.T) {
	// n = 20 with the permutation family: neighborhoods stay small
	// (m × (n−m) toggles) even though the null space has 2^10 members.
	var blocks []uint64
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 64; i++ {
			blocks = append(blocks, i<<10)
		}
	}
	p := profile.Build(blocks, 20, 1<<10)
	res, err := Construct(context.Background(), p, 10, Options{Family: hash.FamilyPermutation, MaxInputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == 0 {
		t.Fatal("baseline must conflict")
	}
	if res.Estimated != 0 {
		t.Fatalf("n=20 permutation search left %d of %d", res.Estimated, res.Baseline)
	}
}

// dmMisses is the exact reference: the misses of a direct-mapped cache
// of 4-byte lines, one per set of f, reading blocks in order.
func dmMisses(t testing.TB, blocks []uint64, f *hash.XOR) uint64 {
	t.Helper()
	h := f.Matrix()
	c, err := cache.New(cache.Config{SizeBytes: 4 << h.M, BlockBytes: 4, Ways: 1, Index: h})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		c.AccessBlock(b)
	}
	return c.Stats().Misses
}

// TestSketchSearchIsOneMeasure tunes the 24 Media and PowerStone
// kernels on a default sketch profile with general XOR and permutation
// 2-in. The climbs score the sketch's support, so the reported
// estimate must be that measure of the returned function, and it can
// never be worse than the baseline measured the same way. Every sketch
// count undercounts, so that estimate is also at most the flat
// profile's estimate of the same matrix.
func TestSketchSearchIsOneMeasure(t *testing.T) {
	for _, w := range append(workloads.MediaSuite(), workloads.PowerStoneSuite()...) {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var ps [2]*profile.Profile
			for i, sketch := range []bool{true, false} {
				p, err := profile.BuildStream(context.Background(), w.Data(1), 4, 16, 1024,
					profile.Options{Sketch: sketch})
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = p
			}
			p, flat := ps[0], ps[1]
			for _, opt := range []Options{{Family: hash.FamilyGeneralXOR}, {Family: hash.FamilyPermutation, MaxInputs: 2}} {
				res, err := Construct(context.Background(), p, 10, opt)
				if err != nil {
					t.Fatal(err)
				}
				if est := p.EstimateMatrix(res.Matrix); res.Estimated != est || res.Estimated > res.Baseline {
					t.Errorf("%v: Estimated %d, EstimateMatrix %d, Baseline %d",
						opt.Family, res.Estimated, est, res.Baseline)
				}
				if exact := flat.EstimateMatrix(res.Matrix); res.Estimated > exact {
					t.Errorf("%v: sketch estimate %d above the flat profile's %d", opt.Family, res.Estimated, exact)
				}
			}
		})
	}
}
