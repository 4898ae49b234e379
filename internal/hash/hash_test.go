package hash

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

func TestModulo(t *testing.T) {
	f := Modulo(16, 8)
	for _, block := range []uint64{0, 1, 0xFF, 0x1234, 0xFFFF} {
		if got := f.Index(block); got != block&0xFF {
			t.Fatalf("Index(%#x) = %#x", block, got)
		}
		if got := f.Tag(block); got != block>>8&0xFF {
			t.Fatalf("Tag(%#x) = %#x", block, got)
		}
	}
	if h := f.Matrix(); h.N != 16 || h.M != 8 {
		t.Fatal("dims wrong")
	}
}

func TestNewXORRejectsRankDeficient(t *testing.T) {
	h := gf2.MatrixFromCols(8, []gf2.Vec{0b11, 0b11})
	if _, err := NewXOR(h); !errors.Is(err, xerr.ErrInvalidGeometry) {
		t.Fatalf("rank-deficient matrix: err = %v, want wrapped ErrInvalidGeometry", err)
	}
}

func TestNewXORRejectsInvalidGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    gf2.Matrix
	}{
		{"m above n", gf2.Matrix{N: 2, M: 3, Cols: []gf2.Vec{1, 2, 3}}},
		{"identity wider than n", gf2.Identity(16, 18)},
		{"n above MaxBits", gf2.Matrix{N: gf2.MaxBits + 1, M: 1, Cols: []gf2.Vec{1}}},
		{"zero matrix", gf2.Matrix{}},
		{"n below 1", gf2.Matrix{N: -1}},
		{"negative m", gf2.Matrix{N: 4, M: -1}},
		{"columns above n", gf2.Matrix{N: 4, M: 2, Cols: []gf2.Vec{1 << 5, 1 << 6}}},
		{"one column bit at n", gf2.Matrix{N: 4, M: 2, Cols: []gf2.Vec{1, 1<<4 | 2}}},
	} {
		if _, err := NewXOR(tc.h); !errors.Is(err, xerr.ErrInvalidGeometry) {
			t.Errorf("%s: err = %v, want wrapped ErrInvalidGeometry", tc.name, err)
		}
	}
}

func TestMustXORPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustXOR(gf2.NewMatrix(8, 2))
}

// checkBijective verifies (index, tag) uniquely identifies every block.
func checkBijective(t *testing.T, f *XOR) {
	t.Helper()
	n := f.Matrix().N
	seen := make(map[[2]uint64]uint64)
	for block := uint64(0); block < 1<<uint(n); block++ {
		key := [2]uint64{f.Index(block), f.Tag(block)}
		if prev, ok := seen[key]; ok {
			t.Fatalf("blocks %#x and %#x alias: index=%#x tag=%#x", prev, block, key[0], key[1])
		}
		seen[key] = block
	}
}

func TestBijectivityModulo(t *testing.T) {
	checkBijective(t, Modulo(12, 5))
}

func TestBijectivityRandomXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(5)
		m := 2 + rng.Intn(n-4)
		var h gf2.Matrix
		for {
			h = gf2.NewMatrix(n, m)
			for c := range h.Cols {
				h.Cols[c] = gf2.Vec(rng.Uint64()) & gf2.Mask(n)
			}
			if h.Rank() == m {
				break
			}
		}
		f, err := NewXOR(h)
		if err != nil {
			t.Fatal(err)
		}
		checkBijective(t, f)
	}
}

func TestPermutationBasedKeepsConventionalTag(t *testing.T) {
	// Paper §4: permutation-based functions can use the high-order
	// address bits as tag, like modulo indexing.
	f, err := PermutationBased(16, 8, [][]int{{12}, {}, {9, 15}, {}, {}, {8}, {}, {14}})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matrix().IsPermutationBased() {
		t.Fatal("matrix should be permutation-based")
	}
	for _, block := range []uint64{0, 0xFFFF, 0x1234, 0xBEEF & 0xFFFF} {
		if got, want := f.Tag(block), block>>8; got != want {
			t.Fatalf("Tag(%#x) = %#x, want conventional %#x", block, got, want)
		}
	}
	checkBijective(t, f)
}

func TestPermutationBasedValidation(t *testing.T) {
	if _, err := PermutationBased(16, 8, [][]int{{3}}); err == nil {
		t.Error("wrong extra count should fail")
	}
	bad := make([][]int, 8)
	bad[0] = []int{3} // below m: not a permutation-based extra input
	if _, err := PermutationBased(16, 8, bad); err == nil {
		t.Error("low-order extra input should fail")
	}
	bad[0] = []int{16}
	if _, err := PermutationBased(16, 8, bad); err == nil {
		t.Error("out-of-range extra input should fail")
	}
}

func TestBitSelecting(t *testing.T) {
	f, err := BitSelecting(16, []int{0, 1, 2, 3, 4, 5, 6, 9})
	if err != nil {
		t.Fatal(err)
	}
	checkBijective(t, f)
	if !f.Matrix().IsBitSelecting() {
		t.Fatal("should be bit-selecting")
	}
	// Tag must select the unselected bits 7, 8, 10..15, in ascending
	// order: address bit positions[i] becomes tag bit i.
	for i, p := range []int{7, 8, 10, 11, 12, 13, 14, 15} {
		if got := f.Tag(1 << uint(p)); got != 1<<uint(i) {
			t.Fatalf("Tag(a%d) = %#x, want %#x", p, got, 1<<uint(i))
		}
	}
	for _, p := range []int{0, 1, 2, 3, 4, 5, 6, 9} {
		if got := f.Tag(1 << uint(p)); got != 0 {
			t.Fatalf("Tag(a%d) = %#x, want 0 for an index bit", p, got)
		}
	}
}

func TestXORString(t *testing.T) {
	f := MustXOR(gf2.Identity(16, 4))
	s := f.String()
	if !strings.Contains(s, "bit-selecting") || !strings.Contains(s, "s0=a0") {
		t.Errorf("String() = %q", s)
	}
	p, _ := PermutationBased(16, 4, [][]int{{5}, {}, {}, {}})
	if !strings.Contains(p.String(), "permutation-based (2-in)") {
		t.Errorf("String() = %q", p.String())
	}
	if !strings.Contains(p.String(), "s0=a0^a5") {
		t.Errorf("String() = %q", p.String())
	}
}

func TestFamilyBelongs(t *testing.T) {
	id := gf2.Identity(16, 8)
	perm2 := id.Clone()
	perm2.Cols[0] |= gf2.Unit(12)
	general := id.Clone()
	general.Cols[0] = gf2.Unit(3) | gf2.Unit(7) // not permutation-based

	if !FamilyBitSelect.Belongs(id, 0) || FamilyBitSelect.Belongs(perm2, 0) {
		t.Error("bit-select membership wrong")
	}
	if !FamilyPermutation.Belongs(perm2, 2) || !FamilyPermutation.Belongs(id, 1) {
		t.Error("permutation membership wrong")
	}
	if FamilyPermutation.Belongs(general, 0) {
		t.Error("general matrix should not be permutation-based")
	}
	perm4 := id.Clone()
	perm4.Cols[1] |= gf2.Unit(9) | gf2.Unit(10) | gf2.Unit(11)
	if FamilyPermutation.Belongs(perm4, 2) {
		t.Error("4-input function should fail 2-in bound")
	}
	if !FamilyPermutation.Belongs(perm4, 4) {
		t.Error("4-input function should pass 4-in bound")
	}
	if !FamilyGeneralXOR.Belongs(general, 0) {
		t.Error("general XOR membership wrong")
	}
}

func TestFamilyString(t *testing.T) {
	if FamilyBitSelect.String() != "bit-select" ||
		FamilyPermutation.String() != "permutation-based" ||
		FamilyGeneralXOR.String() != "general-XOR" {
		t.Fatal("family names wrong")
	}
	if !strings.Contains(Family(42).String(), "42") {
		t.Fatal("unknown family string")
	}
}

func TestIndexIgnoresBitsAboveN(t *testing.T) {
	f := Modulo(16, 8)
	if f.Index(0x12345) != f.Index(0x2345) {
		t.Fatal("bits above n must not affect index")
	}
}
