package gf2

import "testing"

// FuzzMatrixUnmarshal ensures arbitrary text never panics the parser
// and that accepted matrices round-trip through MarshalText.
func FuzzMatrixUnmarshal(f *testing.F) {
	good, _ := Identity(8, 4).MarshalText()
	f.Add(string(good))
	f.Add("gf2matrix n=4 m=2\ncol0 0001\ncol1 0010\n")
	f.Add("gf2matrix n=4 m=2\ncol0 0001")
	f.Add("gf2matrix n=999 m=2\ncol0 1\ncol1 1")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		var h Matrix
		if err := h.UnmarshalText([]byte(s)); err != nil {
			return
		}
		data, err := h.MarshalText()
		if err != nil {
			t.Fatalf("accepted matrix failed to marshal: %v", err)
		}
		var h2 Matrix
		if err := h2.UnmarshalText(data); err != nil {
			t.Fatalf("re-marshalled matrix failed to parse: %v", err)
		}
		if !h2.Equal(h) {
			t.Fatal("round trip changed the matrix")
		}
	})
}

// FuzzParseVec checks the bit-string parser against its printer.
func FuzzParseVec(f *testing.F) {
	f.Add("1010")
	f.Add("0")
	f.Add("xyz")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseVec(s)
		if err != nil {
			return
		}
		if got, err := ParseVec(v.StringN(len(s))); err != nil || got != v {
			t.Fatalf("round trip failed for %q: %v", s, err)
		}
	})
}

// FuzzLinearMap checks the byte-sliced tables against the per-column
// reference: LinearMap.Apply(a) must equal Matrix.Apply(a & Mask(N))
// for any N ≤ 64, M ≤ 64, columns (bits at or above N included, which
// both must ignore) and address.
func FuzzLinearMap(f *testing.F) {
	f.Add(uint8(16), uint8(10), uint64(1), uint64(0x1234))
	f.Add(uint8(64), uint8(64), uint64(7), ^uint64(0))
	f.Add(uint8(1), uint8(0), uint64(3), uint64(1))
	f.Add(uint8(13), uint8(64), uint64(9), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, n, m uint8, seed, addr uint64) {
		h := Matrix{N: 1 + int(n)%MaxBits, M: int(m) % (MaxBits + 1)}
		for c := 0; c < h.M; c++ {
			seed += 0x9E3779B97F4A7C15
			h.Cols = append(h.Cols, Vec(seed*0xBF58476D1CE4E5B9^seed>>29))
		}
		lm := NewLinearMap(h)
		for _, a := range []Vec{Vec(addr), ^Vec(addr), Vec(addr) & Mask(h.N)} {
			if got, want := lm.Apply(a), h.Apply(a&Mask(h.N)); got != want {
				t.Fatalf("%d×%d: Apply(%#x) = %#x, Matrix.Apply = %#x", h.N, h.M, uint64(a), uint64(got), uint64(want))
			}
		}
	})
}
