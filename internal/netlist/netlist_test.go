package netlist

import (
	"math/rand"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/hwcost"
)

func TestSwitchCountsMatchHwcostFormulas(t *testing.T) {
	// The executable networks and the closed-form Table 1 model must
	// agree on every geometry.
	for _, n := range []int{8, 12, 16} {
		for _, m := range []int{4, 6, n - 2} {
			if m >= n {
				continue
			}
			cases := []struct {
				nl    *Netlist
				style hwcost.Style
			}{
				{NewBitSelectNaive(n, m), hwcost.BitSelectNaive},
				{NewBitSelectOptimized(n, m), hwcost.BitSelectOptimized},
				{NewGeneralXOR2(n, m), hwcost.GeneralXOR2},
				{NewPermutationXOR2(n, m), hwcost.PermutationXOR2},
			}
			for _, c := range cases {
				want := hwcost.Switches(c.style, n, m)
				if got := c.nl.SwitchCount(); got != want {
					t.Errorf("%s n=%d m=%d: netlist %d switches, formula %d", c.nl.Style, n, m, got, want)
				}
			}
		}
	}
}

func TestTable1SwitchCountsFromNetlists(t *testing.T) {
	// Regenerate paper Table 1 from the actual gate-level structures.
	want := map[string][3]int{
		"bit-select":           {256, 256, 256},
		"optimized bit-select": {144, 136, 112},
		"general XOR":          {252, 261, 250},
		"permutation-based":    {72, 70, 60},
	}
	ms := []int{8, 10, 12}
	for style, row := range want {
		for i, m := range ms {
			var nl *Netlist
			switch style {
			case "bit-select":
				nl = NewBitSelectNaive(16, m)
			case "optimized bit-select":
				nl = NewBitSelectOptimized(16, m)
			case "general XOR":
				nl = NewGeneralXOR2(16, m)
			case "permutation-based":
				nl = NewPermutationXOR2(16, m)
			}
			if got := nl.SwitchCount(); got != row[i] {
				t.Errorf("%s m=%d: %d switches, paper says %d", style, m, got, row[i])
			}
		}
	}
}

// checkRealises configures nl from h and verifies the network computes
// a function with the same null space, and a tag keeping the overall
// mapping bijective.
func checkRealises(t *testing.T, nl *Netlist, h gf2.Matrix) {
	t.Helper()
	if err := nl.Configure(h); err != nil {
		t.Fatalf("%s: Configure: %v", nl.Style, err)
	}
	eff := nl.EffectiveMatrix()
	if !eff.NullSpace().Equal(h.NullSpace()) {
		t.Fatalf("%s: effective matrix has different null space\nwant H=\n%v\ngot=\n%v", nl.Style, h, eff)
	}
	// Exhaustive bijectivity check of (index, tag).
	seen := make(map[[2]uint64]bool, 1<<uint(nl.N))
	for a := uint64(0); a < 1<<uint(nl.N); a++ {
		idx, tag := nl.Eval(a)
		key := [2]uint64{idx, tag}
		if seen[key] {
			t.Fatalf("%s: (index,tag) collision at address %#x", nl.Style, a)
		}
		seen[key] = true
	}
}

func TestPermutationNetworkRealisesFunctions(t *testing.T) {
	n, m := 12, 6
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		h := gf2.Identity(n, m)
		for c := 0; c < m; c++ {
			if rng.Intn(3) > 0 {
				h.Cols[c] |= gf2.Unit(m + rng.Intn(n-m))
			}
		}
		checkRealises(t, NewPermutationXOR2(n, m), h)
	}
}

func TestPermutationNetworkMatchesHashFunc(t *testing.T) {
	// The netlist must agree bit-for-bit with the hash.XOR view, index
	// AND tag (permutation-based keeps the conventional tag).
	n, m := 12, 5
	f, err := hash.PermutationBased(n, m, [][]int{{7}, {}, {9, 11} /*too wide for 2-in*/, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	nl := NewPermutationXOR2(n, m)
	if err := nl.Configure(f.Matrix()); err == nil {
		t.Fatal("3-input column must be rejected by 2-input hardware")
	}
	f2, err := hash.PermutationBased(n, m, [][]int{{7}, {}, {9}, {}, {11}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Configure(f2.Matrix()); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 1<<uint(n); a++ {
		idx, tag := nl.Eval(a)
		if idx != f2.Index(a) {
			t.Fatalf("index mismatch at %#x: netlist %#x, hash %#x", a, idx, f2.Index(a))
		}
		if tag != f2.Tag(a) {
			t.Fatalf("tag mismatch at %#x: netlist %#x, hash %#x", a, tag, f2.Tag(a))
		}
	}
}

func TestBitSelectNetworksRealiseSelections(t *testing.T) {
	n, m := 10, 4
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		pos := rng.Perm(n)[:m]
		h := gf2.BitSelect(n, pos)
		checkRealises(t, NewBitSelectNaive(n, m), h)
		checkRealises(t, NewBitSelectOptimized(n, m), h)
	}
}

func TestBitSelectRejectsXORFunction(t *testing.T) {
	h := gf2.Identity(8, 4)
	h.Cols[0] |= gf2.Unit(6)
	if err := NewBitSelectOptimized(8, 4).Configure(h); err == nil {
		t.Fatal("bit-select network cannot realise XOR functions")
	}
}

func TestGeneralXOR2RealisesTwoInputFunctions(t *testing.T) {
	n, m := 10, 4
	rng := rand.New(rand.NewSource(5))
	realized := 0
	for trial := 0; trial < 40; trial++ {
		// Random 2-input full-rank matrices.
		h := gf2.NewMatrix(n, m)
		for c := 0; c < m; c++ {
			a := rng.Intn(n)
			h.Cols[c] = gf2.Unit(a)
			if rng.Intn(2) == 1 {
				b := rng.Intn(n)
				if b != a {
					h.Cols[c] |= gf2.Unit(b)
				}
			}
		}
		if h.Rank() != m {
			continue
		}
		nl := NewGeneralXOR2(n, m)
		if err := nl.Configure(h); err != nil {
			// Some matrices genuinely do not fit the windowed selectors;
			// that is expected — but the common ones must.
			continue
		}
		realized++
		eff := nl.EffectiveMatrix()
		if !eff.NullSpace().Equal(h.NullSpace()) {
			t.Fatalf("null space mismatch for\n%v", h)
		}
	}
	if realized < 20 {
		t.Fatalf("only %d/40 two-input matrices realised; matching too weak", realized)
	}
}

func TestGeneralXOR2RealisesPermutationFunctions(t *testing.T) {
	// Every permutation-based 2-input function must also fit the
	// general network (it is a superset family).
	n, m := 12, 6
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		h := gf2.Identity(n, m)
		for c := 0; c < m; c++ {
			if rng.Intn(2) == 1 {
				h.Cols[c] |= gf2.Unit(m + rng.Intn(n-m))
			}
		}
		checkRealises(t, NewGeneralXOR2(n, m), h)
	}
}

func TestGeneralXOR2RejectsWideColumns(t *testing.T) {
	h := gf2.Identity(8, 4)
	h.Cols[0] |= gf2.Unit(5) | gf2.Unit(6)
	if err := NewGeneralXOR2(8, 4).Configure(h); err == nil {
		t.Fatal("3-input column must be rejected")
	}
}

func TestConfigureRejectsBadMatrices(t *testing.T) {
	nl := NewPermutationXOR2(8, 4)
	if err := nl.Configure(gf2.Identity(10, 4)); err == nil {
		t.Error("dimension mismatch must fail")
	}
	if err := nl.Configure(gf2.NewMatrix(8, 4)); err == nil {
		t.Error("rank-deficient matrix must fail")
	}
	// Non-permutation-based matrix on the permutation network.
	h := gf2.BitSelect(8, []int{4, 5, 6, 7})
	if err := nl.Configure(h); err == nil {
		t.Error("non-permutation matrix must fail on Fig. 2b network")
	}
}

func TestSetConfigValidation(t *testing.T) {
	nl := NewPermutationXOR2(8, 4)
	if err := nl.SetConfig(make([]bool, 3)); err == nil {
		t.Error("wrong length must fail")
	}
	// All-zero config: floating selector outputs.
	if err := nl.SetConfig(make([]bool, nl.ConfigBits())); err == nil {
		t.Error("non-one-hot config must fail")
	}
	// Two switches on in one selector: short circuit.
	bits := make([]bool, nl.ConfigBits())
	bits[0], bits[1] = true, true
	for i := 5; i < len(bits); i += 5 {
		bits[i] = true
	}
	if err := nl.SetConfig(bits); err == nil {
		t.Error("short-circuit config must fail")
	}
}

func TestEvalPanicsUnconfigured(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPermutationXOR2(8, 4).Eval(0)
}

func TestConfigRoundTrip(t *testing.T) {
	nl := NewPermutationXOR2(8, 4)
	h := gf2.Identity(8, 4)
	h.Cols[2] |= gf2.Unit(6)
	if err := nl.Configure(h); err != nil {
		t.Fatal(err)
	}
	bits := nl.Config()
	nl2 := NewPermutationXOR2(8, 4)
	if err := nl2.SetConfig(bits); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 256; a++ {
		i1, t1 := nl.Eval(a)
		i2, t2 := nl2.Eval(a)
		if i1 != i2 || t1 != t2 {
			t.Fatalf("bitstream round trip diverges at %#x", a)
		}
	}
}

func TestModuloOnEveryNetwork(t *testing.T) {
	// The conventional function is a member of every family; all four
	// networks must realise it exactly.
	n, m := 10, 4
	h := gf2.Identity(n, m)
	for _, nl := range []*Netlist{
		NewBitSelectNaive(n, m),
		NewBitSelectOptimized(n, m),
		NewGeneralXOR2(n, m),
		NewPermutationXOR2(n, m),
	} {
		if err := nl.Configure(h); err != nil {
			t.Fatalf("%s: %v", nl.Style, err)
		}
		for a := uint64(0); a < 1<<uint(n); a += 3 {
			idx, _ := nl.Eval(a)
			if idx != a&0xF {
				t.Fatalf("%s: Eval(%#x) index = %#x", nl.Style, a, idx)
			}
		}
	}
}

func TestDepthMatchesCostModel(t *testing.T) {
	// The executable depth must equal hwcost's CriticalLevel claim:
	// 1 level for pure selection, 2 for selector + XOR.
	cases := []struct {
		nl   *Netlist
		want int
	}{
		{NewBitSelectNaive(12, 5), 1},
		{NewBitSelectOptimized(12, 5), 1},
		{NewGeneralXOR2(12, 5), 2},
		{NewPermutationXOR2(12, 5), 2},
	}
	for _, c := range cases {
		if got := c.nl.Depth(); got != c.want {
			t.Errorf("%s: depth %d, want %d", c.nl.Style, got, c.want)
		}
	}
}
