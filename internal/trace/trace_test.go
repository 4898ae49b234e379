package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := &Trace{Name: "sample", Ops: 1000}
	t.Append(0x1000, Read)
	t.Append(0x1004, Write)
	t.Append(0x8000, Fetch)
	t.Append(0x1008, Read)
	return t
}

func TestBlockExtraction(t *testing.T) {
	tr := &Trace{}
	tr.Append(0x1237, Read)
	if b := tr.Blocks(4, 64)[0]; b != 0x48d {
		t.Errorf("Blocks(4) = %#x", b)
	}
	if b := tr.Blocks(32, 64)[0]; b != 0x91 {
		t.Errorf("Blocks(32) = %#x", b)
	}
}

func TestBlockPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Trace{}).Blocks(24, 16)
}

func TestBlocksTruncation(t *testing.T) {
	tr := &Trace{}
	tr.Append(0xABCD_1234, Read)
	blocks := tr.Blocks(4, 16)
	// 0xABCD1234 >> 2 = 0x2AF3448D; truncated to 16 bits = 0x448D.
	if blocks[0] != 0x448D {
		t.Errorf("truncated block = %#x", blocks[0])
	}
}

func TestComputeStats(t *testing.T) {
	tr := sampleTrace()
	s := tr.ComputeStats()
	if s.Accesses != 4 || s.Reads != 2 || s.Writes != 1 || s.Fetches != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.MinAddr != 0x1000 || s.MaxAddr != 0x8000 {
		t.Fatalf("addr range wrong: %+v", s)
	}
	if s.UniqueBlocks != 4 { // 0x400, 0x401, 0x402, 0x2000
		t.Fatalf("unique blocks = %d", s.UniqueBlocks)
	}
	if s.AccPerKOp != 4.0 {
		t.Fatalf("AccPerKOp = %v", s.AccPerKOp)
	}
	empty := (&Trace{}).ComputeStats()
	if empty.Accesses != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestOpsOrLen(t *testing.T) {
	tr := &Trace{}
	tr.Append(1, Read)
	tr.Append(2, Read)
	if tr.OpsOrLen() != 2 {
		t.Fatal("should default to access count")
	}
	tr.Ops = 50
	if tr.OpsOrLen() != 50 {
		t.Fatal("should use Ops when set")
	}
}

func randomTrace(rng *rand.Rand, n int) *Trace {
	tr := &Trace{Name: "rand", Ops: uint64(n * 3)}
	addr := uint64(0x10000)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			addr = rng.Uint64() & 0xFFFF_FFFF
		case 1:
			addr += 4
		case 2:
			addr += uint64(rng.Intn(256)) * 4
		case 3:
			if addr >= 1024 {
				addr -= uint64(rng.Intn(256)) * 4
			}
		}
		tr.Append(addr, Kind(rng.Intn(3)))
	}
	return tr
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 10, 5000} {
		tr := randomTrace(rng, n)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != tr.Name || got.Ops != tr.Ops || len(got.Accesses) != len(tr.Accesses) {
			t.Fatalf("header mismatch: %+v vs %+v", got, tr)
		}
		for i := range tr.Accesses {
			if got.Accesses[i] != tr.Accesses[i] {
				t.Fatalf("access %d mismatch: %+v vs %+v", i, got.Accesses[i], tr.Accesses[i])
			}
		}
	}
}

func TestBinaryCompactness(t *testing.T) {
	// Sequential accesses should cost ~2 bytes each with delta coding.
	tr := &Trace{Name: "seq"}
	for i := 0; i < 10000; i++ {
		tr.Append(uint64(0x1000+4*i), Fetch)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if perAcc := float64(buf.Len()) / 10000; perAcc > 2.5 {
		t.Errorf("sequential trace costs %.2f bytes/access, want <= 2.5", perAcc)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE....."))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Decode(bytes.NewReader([]byte("XTR"))); err == nil {
		t.Error("truncated magic should fail")
	}
	// Valid magic, truncated body.
	if _, err := Decode(bytes.NewReader([]byte("XTR1"))); err == nil {
		t.Error("truncated body should fail")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Ops != tr.Ops {
		t.Fatalf("header mismatch: %q/%d", got.Name, got.Ops)
	}
	for i := range tr.Accesses {
		if got.Accesses[i] != tr.Accesses[i] {
			t.Fatalf("access %d mismatch", i)
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := DecodeText(strings.NewReader("X 1234\n")); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := DecodeText(strings.NewReader("R zz\n")); err == nil {
		t.Error("bad address should fail")
	}
	// Comments and blank lines are fine.
	tr, err := DecodeText(strings.NewReader("# a comment\n\nR 10\n"))
	if err != nil || tr.Len() != 1 || tr.Accesses[0].Addr != 0x10 {
		t.Errorf("comment handling wrong: %v %+v", err, tr)
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || Fetch.String() != "F" {
		t.Fatal("kind strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind string wrong")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, kinds []byte, ops uint64) bool {
		tr := &Trace{Name: "q", Ops: ops}
		for i, a := range addrs {
			k := Read
			if i < len(kinds) {
				k = Kind(kinds[i] % 3)
			}
			tr.Append(a, k)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.Ops != ops || len(got.Accesses) != len(tr.Accesses) {
			return false
		}
		for i := range tr.Accesses {
			if got.Accesses[i] != tr.Accesses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleave(t *testing.T) {
	a := &Trace{Name: "a"}
	for i := 0; i < 5; i++ {
		a.Append(uint64(100+i), Read)
	}
	b := &Trace{Name: "b"}
	for i := 0; i < 3; i++ {
		b.Append(uint64(200+i), Read)
	}
	m, switches := Interleave("ab", 2, a, b)
	if m.Len() != 8 {
		t.Fatalf("merged length %d", m.Len())
	}
	// Expected: a0 a1 | b0 b1 | a2 a3 | b2 | a4
	want := []uint64{100, 101, 200, 201, 102, 103, 202, 104}
	for i, w := range want {
		if m.Accesses[i].Addr != w {
			t.Fatalf("access %d = %d, want %d (full: %v)", i, m.Accesses[i].Addr, w, m.Accesses)
		}
	}
	// Switches at indices 2, 4, 6, 7 (every trace change).
	wantSw := []int{2, 4, 6, 7}
	if len(switches) != len(wantSw) {
		t.Fatalf("switches = %v, want %v", switches, wantSw)
	}
	for i := range wantSw {
		if switches[i] != wantSw[i] {
			t.Fatalf("switches = %v, want %v", switches, wantSw)
		}
	}
	// Ops accumulate from OpsOrLen.
	if m.Ops != 8 {
		t.Fatalf("ops = %d", m.Ops)
	}
}

func TestInterleavePanicsOnBadQuantum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Interleave("x", 0, &Trace{})
}

func TestInterleaveSingleTraceNoSwitches(t *testing.T) {
	a := &Trace{}
	for i := 0; i < 7; i++ {
		a.Append(uint64(i), Read)
	}
	m, switches := Interleave("solo", 3, a)
	if m.Len() != 7 || len(switches) != 0 {
		t.Fatalf("solo interleave wrong: len=%d switches=%v", m.Len(), switches)
	}
}

func TestDineroRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeDinero(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want := "0 1000\n1 1004\n2 8000\n0 1008\n"
	if buf.String() != want {
		t.Fatalf("din encoding:\n%q\nwant\n%q", buf.String(), want)
	}
	got, err := DecodeDinero(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Accesses {
		if got.Accesses[i] != tr.Accesses[i] {
			t.Fatalf("access %d mismatch", i)
		}
	}
	// Din has no ops metadata: defaults to access count.
	if got.Ops != uint64(tr.Len()) {
		t.Fatalf("ops = %d", got.Ops)
	}
}

func TestDineroErrors(t *testing.T) {
	if _, err := DecodeDinero(strings.NewReader("4 100\n")); err == nil {
		t.Error("flush label must be rejected")
	}
	if _, err := DecodeDinero(strings.NewReader("zero 100\n")); err == nil {
		t.Error("bad label must be rejected")
	}
	tr, err := DecodeDinero(strings.NewReader("\n0 ff\n\n"))
	if err != nil || tr.Len() != 1 || tr.Accesses[0].Addr != 0xFF {
		t.Errorf("blank line handling wrong: %v %+v", err, tr)
	}
}

func TestRebase(t *testing.T) {
	tr := sampleTrace()
	rb := tr.Rebase(0x1000)
	if rb.Ops != tr.Ops || rb.Len() != tr.Len() {
		t.Fatal("rebase changed shape")
	}
	for i := range tr.Accesses {
		if rb.Accesses[i].Addr != tr.Accesses[i].Addr+0x1000 {
			t.Fatalf("access %d not shifted", i)
		}
		if rb.Accesses[i].Kind != tr.Accesses[i].Kind {
			t.Fatalf("access %d kind changed", i)
		}
	}
	// Original untouched.
	if tr.Accesses[0].Addr != 0x1000 {
		t.Fatal("Rebase mutated the original")
	}
}
