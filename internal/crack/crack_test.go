package crack

import (
	"errors"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// geometry derives a pseudo-random valid plant geometry from a seed:
// 3 <= n <= 24, 1 <= m <= min(n-1, 12), 1 <= rank <= min(m, 10). The
// rank cap keeps the naive strategy's 2^rank coset walks affordable.
func geometry(seed int64) (n, m, rank int) {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 1
	next := func() uint64 { return splitmix(&s) }
	n = 3 + int(next()%22) // 3..24
	maxM := n - 1
	if maxM > 12 {
		maxM = 12
	}
	m = 1 + int(next()%uint64(maxM))
	maxR := m
	if maxR > 10 {
		maxR = 10
	}
	rank = 1 + int(next()%uint64(maxR))
	return
}

// crackPlanted runs one strategy against a fresh oracle for the planted
// h and verifies recovery: equal null spaces, correct rank, and an
// explicit index-transform witness mapping the recovered function onto
// the planted one.
func crackPlanted(t *testing.T, h gf2.Matrix, style Style, opts Options) *Result {
	t.Helper()
	o, err := NewSimOracle(h, style)
	if err != nil {
		t.Fatalf("NewSimOracle(%dx%d): %v", h.N, h.M, err)
	}
	res, err := Crack(o, opts)
	if err != nil {
		t.Fatalf("Crack(%dx%d, %v): %v", h.N, h.M, opts.Strategy, err)
	}
	if !res.NullSpace.Equal(h.NullSpace()) {
		t.Fatalf("%v on %dx%d: recovered null space\n%v\nwant\n%v", opts.Strategy, h.N, h.M, res.NullSpace, h.NullSpace())
	}
	if !Equivalent(res.Matrix, h) {
		t.Fatalf("%v on %dx%d: recovered matrix not equivalent to planted", opts.Strategy, h.N, h.M)
	}
	if want := h.Rank(); res.Rank != want {
		t.Fatalf("%v on %dx%d: recovered rank %d, planted rank %d", opts.Strategy, h.N, h.M, res.Rank, want)
	}
	if _, ok := IndexTransform(res.Matrix, h); !ok {
		t.Fatalf("%v on %dx%d: no index transform from recovered to planted", opts.Strategy, h.N, h.M)
	}
	return res
}

// TestCrackRandomGeometries is the acceptance battery: >= 200 randomized
// planted direct-mapped geometries with n <= 24, including rank-deficient
// H, each cracked with both strategies through alternating oracle styles.
// Every recovery must be set-mapping equivalent to its plant, and the
// group-testing strategy must spend fewer logical queries than naive in
// aggregate (and per geometry once the rank is large enough for the
// exponential/linear gap to open).
func TestCrackRandomGeometries(t *testing.T) {
	const trials = 220
	var naiveTotal, groupTotal uint64
	deficient := 0
	for seed := int64(0); seed < trials; seed++ {
		n, m, rank := geometry(seed)
		if rank < m {
			deficient++
		}
		h := RandomPlant(n, m, rank, seed)
		style := Style(seed % 2)
		nv := crackPlanted(t, h, style, Options{Strategy: Naive})
		gr := crackPlanted(t, h, style, Options{Strategy: GroupTesting})
		naiveTotal += nv.LogicalQueries
		groupTotal += gr.LogicalQueries
		// Deterministic per-geometry bound: each bit costs at most one
		// existence probe, a |reps|-step binary search and one
		// verification, so n*(rank+2) caps the noise-free run.
		if bound := uint64(n) * uint64(rank+2); gr.LogicalQueries > bound {
			t.Errorf("seed %d (n=%d m=%d rank=%d): group used %d logical queries, bound %d",
				seed, n, m, rank, gr.LogicalQueries, bound)
		}
		// Per geometry the reduction only reliably pays once 2^rank
		// dwarfs rank+2; below that the group overhead (existence probe
		// + verification) can lose to a lucky naive coset walk.
		if rank >= 6 && gr.LogicalQueries >= nv.LogicalQueries {
			t.Errorf("seed %d (n=%d m=%d rank=%d): group used %d logical queries, naive %d",
				seed, n, m, rank, gr.LogicalQueries, nv.LogicalQueries)
		}
	}
	if deficient == 0 {
		t.Fatal("geometry schedule produced no rank-deficient plants")
	}
	if groupTotal >= naiveTotal {
		t.Fatalf("group testing used %d total logical queries, naive %d — reduction missing", groupTotal, naiveTotal)
	}
	t.Logf("%d geometries (%d rank-deficient): naive %d logical queries, group %d (%.1fx fewer)",
		trials, deficient, naiveTotal, groupTotal, float64(naiveTotal)/float64(groupTotal))
}

// TestCrackDifferential checks the recovered function against the
// planted one address by address: IndexTransform's witness B must
// satisfy planted(x) == B(recovered(x)) over a dense sweep of the whole
// address space (small n) and over random 64-bit addresses (the oracle
// masks to n bits, so the high bits must be ignored consistently).
func TestCrackDifferential(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		n := 4 + int(seed%9) // 4..12: dense sweep stays affordable
		m := 1 + int(seed)%(n-1)
		rank := m
		if rank > 8 {
			rank = 8
		}
		if seed%3 == 0 && rank > 1 {
			rank-- // mix in rank-deficient plants
		}
		h := RandomPlant(n, m, rank, 1000+seed)
		style := Style(seed % 2)
		strategy := Strategy(seed / 2 % 2)
		res := crackPlanted(t, h, style, Options{Strategy: strategy})
		b, ok := IndexTransform(res.Matrix, h)
		if !ok {
			t.Fatalf("seed %d: no transform", seed)
		}
		check := func(x uint64) {
			t.Helper()
			want := h.Apply(gf2.Vec(x) & gf2.Mask(n))
			got := b.Apply(res.Matrix.Apply(gf2.Vec(x) & gf2.Mask(n)))
			if got != want {
				t.Fatalf("seed %d: address %#x: planted index %#x, transformed recovered index %#x", seed, x, want, got)
			}
		}
		for x := uint64(0); x < 1<<uint(n); x++ {
			check(x)
		}
		rng := uint64(seed) + 0xA5A5
		for i := 0; i < 1000; i++ {
			check(splitmix(&rng)) // full 64-bit addresses
		}
	}
}

// TestCrackNoise plants functions behind a noisy oracle (spurious
// misses) and requires both strategies to still recover them once
// majority voting absorbs the noise. Ranks stay small: the naive
// strategy has no verification probe, so its failure probability
// scales with its (exponential-in-rank) query count; group testing
// additionally survives the corrupted searches via its retry loop.
func TestCrackNoise(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := uint64(seed)*0x9E3779B97F4A7C15 + 3
		n := 6 + int(splitmix(&s)%11) // 6..16
		m := 1 + int(splitmix(&s)%6)  // 1..6
		if m >= n {
			m = n - 1
		}
		rank := m
		if rank > 4 {
			rank = 4
		}
		h := RandomPlant(n, m, rank, 300+seed)
		for _, strategy := range []Strategy{Naive, GroupTesting} {
			inner, err := NewSimOracle(h, EvictionSet)
			if err != nil {
				t.Fatal(err)
			}
			o := NewNoisyOracle(inner, 0.05, 42+seed)
			res, err := Crack(o, Options{Strategy: strategy, Repeats: 4})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, strategy, err)
			}
			if !res.NullSpace.Equal(h.NullSpace()) {
				t.Fatalf("seed %d %v: noisy recovery diverged", seed, strategy)
			}
			// Majority voting must actually have repeated probes.
			if res.Stats.Queries <= res.LogicalQueries {
				t.Fatalf("seed %d %v: %d oracle queries for %d logical queries — no repetition?",
					seed, strategy, res.Stats.Queries, res.LogicalQueries)
			}
		}
	}
}

// forgingOracle answers every multi-address group probe positively
// (as relentless noise would) while staying honest on singletons. Group
// testing's verification probe must catch the forgery and, after
// exhausting its retries, report non-convergence rather than a wrong
// basis vector.
type forgingOracle struct{ inner Oracle }

func (f *forgingOracle) AddrBits() int { return f.inner.AddrBits() }
func (f *forgingOracle) Stats() Stats  { return f.inner.Stats() }
func (f *forgingOracle) Conflicts(target uint64, group []uint64) bool {
	real := f.inner.Conflicts(target, group)
	if len(group) > 1 {
		return true
	}
	return real
}

func TestCrackGroupNoiseExhaustion(t *testing.T) {
	h := RandomPlant(10, 4, 4, 7)
	inner, err := NewSimOracle(h, EvictionSet)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Crack(&forgingOracle{inner: inner}, Options{Strategy: GroupTesting})
	if !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("expected non-convergence error, got %v", err)
	}
}

// allIndependent reports no conflicts ever, so every address bit grows
// the representative set — the cheapest way to drive the cracker past
// MaxRecoverableRank without simulating a huge cache.
type allIndependent struct {
	n     int
	stats Stats
}

func (a *allIndependent) AddrBits() int { return a.n }
func (a *allIndependent) Stats() Stats  { return a.stats }
func (a *allIndependent) Conflicts(target uint64, group []uint64) bool {
	a.stats.Queries++
	a.stats.Accesses += uint64(len(group)) + 2
	return false
}

func TestCrackRankGuard(t *testing.T) {
	_, err := Crack(&allIndependent{n: MaxRecoverableRank + 8}, Options{Strategy: GroupTesting})
	if !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("expected rank-guard error, got %v", err)
	}
}

func TestCrackOptionValidation(t *testing.T) {
	h := RandomPlant(8, 3, 3, 1)
	o, err := NewSimOracle(h, HitMiss)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Crack(o, Options{Repeats: -1}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("negative Repeats: got %v", err)
	}
	if _, err := Crack(o, Options{Strategy: Strategy(99)}); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("unknown strategy: got %v", err)
	}
}

func TestNewSimOracleValidation(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{8, 0}, {8, 8}, {4, 5}} {
		h := gf2.Identity(tc.n, tc.m)
		if _, err := NewSimOracle(h, HitMiss); !errors.Is(err, xerr.ErrInvalidGeometry) {
			t.Errorf("NewSimOracle(%dx%d): got %v, want ErrInvalidGeometry", tc.n, tc.m, err)
		}
	}
}

// TestPlantedBijective checks the black box at every planted rank:
// distinct blocks never share a line, so probing target with y evicts
// it exactly when H maps the two to one set, including a y that
// differs from target only above the hashed bits. A black box that
// merged blocks would answer no conflict for such a pair.
func TestPlantedBijective(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n := 4 + int(seed%7) // 4..10
		m := 1 + int(seed)%(n-1)
		rank := 1 + int(seed)%m
		h := RandomPlant(n, m, rank, 2000+seed)
		o, err := NewSimOracle(h, HitMiss)
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < 1<<uint(n); x++ {
			if !o.Conflicts(x, []uint64{x | 1<<uint(n)}) {
				t.Fatalf("seed %d: block %#x not evicted by its alias above bit %d", seed, x, n)
			}
			for y := uint64(0); y < 1<<uint(n); y++ {
				if y == x {
					continue
				}
				want := h.Apply(gf2.Vec(x)) == h.Apply(gf2.Vec(y))
				if got := o.Conflicts(x, []uint64{y}); got != want {
					t.Fatalf("seed %d (n=%d m=%d rank=%d): Conflicts(%#x, %#x) = %v, same set %v",
						seed, n, m, rank, x, y, got, want)
				}
			}
		}
	}
}

func TestRandomPlantProperties(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		n, m, rank := geometry(500 + seed)
		h := RandomPlant(n, m, rank, seed)
		if h.N != n || h.M != m {
			t.Fatalf("RandomPlant(%d, %d, ...): got %dx%d", n, m, h.N, h.M)
		}
		if got := h.Rank(); got != rank {
			t.Fatalf("RandomPlant(%d, %d, %d): rank %d", n, m, rank, got)
		}
		for j, col := range h.Cols {
			if col == 0 {
				t.Fatalf("RandomPlant(%d, %d, %d): zero column %d", n, m, rank, j)
			}
		}
	}
	// Determinism: same seed, same plant.
	a, b := RandomPlant(16, 8, 5, 99), RandomPlant(16, 8, 5, 99)
	if !a.Equal(b) {
		t.Fatal("RandomPlant not deterministic in seed")
	}
	for _, tc := range []struct{ n, m, rank int }{
		{1, 1, 1}, {8, 0, 1}, {8, 8, 8}, {8, 3, 0}, {8, 3, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RandomPlant(%d, %d, %d): expected panic", tc.n, tc.m, tc.rank)
				}
			}()
			RandomPlant(tc.n, tc.m, tc.rank, 0)
		}()
	}
}

func TestIndexTransformRejectsUnrelated(t *testing.T) {
	// planted uses address bit 3, which the recovered matrix ignores:
	// no column combination of rec can produce it.
	rec := gf2.MatrixFromCols(8, []gf2.Vec{gf2.Unit(0), gf2.Unit(1)})
	pl := gf2.MatrixFromCols(8, []gf2.Vec{gf2.Unit(3)})
	if _, ok := IndexTransform(rec, pl); ok {
		t.Fatal("IndexTransform invented a transform onto an unreachable column")
	}
	if Equivalent(rec, pl) {
		t.Fatal("Equivalent confused different null spaces")
	}
	if Equivalent(gf2.Identity(8, 2), gf2.Identity(9, 2)) {
		t.Fatal("Equivalent ignored ambient width")
	}
}

func TestNoisyOracleDeterminism(t *testing.T) {
	h := RandomPlant(10, 4, 4, 3)
	run := func(seed int64) []bool {
		inner, err := NewSimOracle(h, EvictionSet)
		if err != nil {
			t.Fatal(err)
		}
		o := NewNoisyOracle(inner, 0.5, seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = o.Conflicts(0, []uint64{uint64(i) + 1})
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	same := true
	diff := false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatal("same seed produced different flip streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical flip streams (suspicious)")
	}
	if o := NewNoisyOracle(nil, 0, 0); o.rng == 0 {
		t.Fatal("zero seed left splitmix state stuck at zero")
	}
}

// FuzzCrackRecover drives randomized plants through the group-testing
// cracker: any reachable geometry must recover a set-mapping-equivalent
// function with an index-transform witness.
func FuzzCrackRecover(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(5), uint8(3), false)
	f.Add(int64(99), uint8(24), uint8(12), uint8(9), true)
	f.Add(int64(7), uint8(3), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, nb, mb, rb uint8, evict bool) {
		n := 3 + int(nb)%22 // 3..24
		maxM := n - 1
		if maxM > 12 {
			maxM = 12
		}
		m := 1 + int(mb)%maxM
		maxR := m
		if maxR > 10 {
			maxR = 10
		}
		rank := 1 + int(rb)%maxR
		h := RandomPlant(n, m, rank, seed)
		style := HitMiss
		if evict {
			style = EvictionSet
		}
		o, err := NewSimOracle(h, style)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Crack(o, Options{Strategy: GroupTesting})
		if err != nil {
			t.Fatal(err)
		}
		if !res.NullSpace.Equal(h.NullSpace()) {
			t.Fatalf("n=%d m=%d rank=%d seed=%d: wrong null space", n, m, rank, seed)
		}
		if _, ok := IndexTransform(res.Matrix, h); !ok {
			t.Fatalf("n=%d m=%d rank=%d seed=%d: no index transform", n, m, rank, seed)
		}
	})
}
