package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// FuzzDecode exercises the binary decoder with arbitrary input: it must
// never panic, and anything it accepts must re-encode and re-decode to
// the same trace (a full round-trip fixed point).
func FuzzDecode(f *testing.F) {
	// Seeds: a valid trace, truncations of it, and junk.
	valid := &Trace{Name: "seed", Ops: 7}
	valid.Append(0x100, Read)
	valid.Append(0x104, Write)
	valid.Append(0x8000, Fetch)
	var buf bytes.Buffer
	if err := Encode(&buf, valid); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte("XTR1"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	// Truncations inside a record: multi-byte varint deltas cut short,
	// so a chunked reader must fail cleanly when resumption mid-record
	// runs out of bytes. wide's deltas span up to 9 bytes.
	wide := &Trace{Name: "wide", Ops: 3}
	wide.Append(0, Read)
	wide.Append(1<<62, Read)
	wide.Append(5, Write)
	var wbuf bytes.Buffer
	if err := Encode(&wbuf, wide); err != nil {
		f.Fatal(err)
	}
	wfull := wbuf.Bytes()
	f.Add(wfull)
	f.Add(wfull[:len(wfull)-1]) // last delta truncated mid-varint
	f.Add(wfull[:len(wfull)-5]) // mid-record cut inside the big delta
	f.Add(wfull[:len(wfull)-10])

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var out bytes.Buffer
		if err := Encode(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if tr2.Name != tr.Name || tr2.Ops != tr.Ops || len(tr2.Accesses) != len(tr.Accesses) {
			t.Fatal("round trip changed the trace header")
		}
		for i := range tr.Accesses {
			if tr.Accesses[i] != tr2.Accesses[i] {
				t.Fatalf("round trip changed access %d", i)
			}
		}
	})
}

// FuzzReaderChunked holds the streaming Reader to the Decode standard
// on arbitrary bytes: both must accept the same inputs, and on
// acceptance the Reader — driven through Read with a fuzzer-chosen
// buffer size over a one-byte-at-a-time underlying stream, so it
// resumes mid-record constantly — must yield exactly the accesses
// Decode does, and so exactly the blocks Trace.Blocks computes from
// them.
func FuzzReaderChunked(f *testing.F) {
	valid := &Trace{Name: "chunk", Ops: 11}
	valid.Append(0x1000, Read)
	valid.Append(0x1004, Write)
	valid.Append(1<<40, Fetch) // large delta: multi-byte varint records
	valid.Append(0x1008, Read)
	var buf bytes.Buffer
	if err := Encode(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint8(1))
	f.Add(buf.Bytes(), uint8(3))
	f.Add(buf.Bytes()[:buf.Len()-2], uint8(2))
	f.Add([]byte("XTR1"), uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, chunkRaw uint8) {
		want, wantErr := Decode(bytes.NewReader(data))
		rd, err := NewReader(iotest.OneByteReader(bytes.NewReader(data)))
		if err != nil {
			if wantErr == nil {
				t.Fatalf("Decode accepted what NewReader rejected: %v", err)
			}
			return
		}
		chunk := 1 + int(chunkRaw)%16
		got := &Trace{}
		var readErr error
		bufAcc := make([]Access, chunk)
		for {
			k, err := rd.Read(bufAcc)
			got.Accesses = append(got.Accesses, bufAcc[:k]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
		}
		if (readErr == nil) != (wantErr == nil) {
			t.Fatalf("Reader err = %v, Decode err = %v", readErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !slices.Equal(got.Accesses, want.Accesses) {
			t.Fatalf("Reader yielded %v, Decode %v", got.Accesses, want.Accesses)
		}
		if !slices.Equal(got.Blocks(4, 16), want.Blocks(4, 16)) {
			t.Fatal("Reader blocks differ from Decode blocks")
		}
		if rd.Header() != want.Header() {
			t.Fatal("reader header disagrees with decoded trace")
		}
	})
}

// FuzzDecodeText does the same for the text format.
func FuzzDecodeText(f *testing.F) {
	f.Add("# name x\n# ops 5\nR 10\nW 14\nF 8000\n")
	f.Add("R zz\n")
	f.Add("# ops -1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := DecodeText(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeText(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := DecodeText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded text failed to decode: %v", err)
		}
		if len(tr2.Accesses) != len(tr.Accesses) {
			t.Fatal("round trip changed the access count")
		}
	})
}
