package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xoridx/internal/xerr"
)

func roundTrip(t *testing.T, payload []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, "TST1", 3, func(w *bytes.Buffer) error {
		w.Write(payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	v, got, err := Read(&buf, "TST1")
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("version = %d, want 3", v)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload mismatch: got %x want %x", got, payload)
	}
}

func TestRoundTrip(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []byte{0})
	roundTrip(t, bytes.Repeat([]byte{0xAB, 0xCD}, 10000))
}

func TestEveryCorruptionIsErrFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "TST1", 1, func(w *bytes.Buffer) error {
		w.Write([]byte("the payload under test"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Flip every single bit of the envelope in turn: each mutation must
	// be rejected with a wrapped ErrFormat (or, for a flipped length
	// bit, a truncation — also ErrFormat). None may round-trip and none
	// may panic.
	for i := 0; i < len(good)*8; i++ {
		mut := append([]byte(nil), good...)
		mut[i/8] ^= 1 << uint(i%8)
		_, _, err := Read(bytes.NewReader(mut), "TST1")
		if err == nil {
			t.Fatalf("bit flip %d accepted", i)
		}
		if !errors.Is(err, xerr.ErrFormat) {
			t.Fatalf("bit flip %d: error %v does not wrap ErrFormat", i, err)
		}
	}
	// Every truncation must fail the same way.
	for cut := 0; cut < len(good); cut++ {
		_, _, err := Read(bytes.NewReader(good[:cut]), "TST1")
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, xerr.ErrFormat) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrFormat", cut, err)
		}
	}
}

func TestWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "AAA1", 1, func(w *bytes.Buffer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf, "BBB1"); !errors.Is(err, xerr.ErrFormat) {
		t.Errorf("wrong magic error %v does not wrap ErrFormat", err)
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	// Hand-build an envelope whose length field is absurd; the reader
	// must refuse before allocating.
	raw := []byte("TST1\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f")
	if _, _, err := Read(bytes.NewReader(raw), "TST1"); !errors.Is(err, xerr.ErrFormat) {
		t.Errorf("oversized length error %v does not wrap ErrFormat", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return Write(w, "TST1", 1, func(b *bytes.Buffer) error {
			b.WriteString("v1")
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	// Overwrite: a second write must replace the content atomically.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return Write(w, "TST1", 1, func(b *bytes.Buffer) error {
			b.WriteString("v2")
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, payload, err := Read(f, "TST1")
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "v2" {
		t.Errorf("payload = %q, want v2", payload)
	}
	// A failing payload writer must leave no temp litter and no file.
	failPath := filepath.Join(dir, "fail.ckpt")
	wantErr := errors.New("boom")
	if err := WriteFileAtomic(failPath, func(io.Writer) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("error = %v, want boom", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "snap.ckpt" {
			t.Errorf("unexpected leftover file %q", e.Name())
		}
	}
}

// TestDecoderLatchesFirstFailure: the first short read names its field
// under the caller's prefix, and every later read returns zero without
// replacing that error.
func TestDecoderLatchesFirstFailure(t *testing.T) {
	d := NewDecoder([]byte{0x05, 0x07, 0x80}, "test: snapshot")
	if v, b := d.Uvarint("a"), d.Byte("b"); v != 5 || b != 7 || d.Err() != nil {
		t.Fatalf("Uvarint, Byte = %d, %d, err %v; want 5, 7, nil", v, b, d.Err())
	}
	if f := d.Float64("c"); f != 0 || d.Rem() != 1 {
		t.Fatalf("short Float64 = %v with %d bytes left, want 0 with 1", f, d.Rem())
	}
	want := "test: snapshot c: truncated: " + xerr.ErrFormat.Error()
	if d.Uvarint("d"); d.Err() == nil || d.Err().Error() != want || !errors.Is(d.Err(), xerr.ErrFormat) {
		t.Fatalf("err = %v, want %q", d.Err(), want)
	}
}

// TestEncoderDecoderRoundTrip: every primitive Encoder writes, Decoder
// reads back in order, and the bytes are the documented ones.
func TestEncoderDecoderRoundTrip(t *testing.T) {
	var b bytes.Buffer
	e := Encoder{&b}
	e.Put(5, 300, math.MaxUint64)
	e.WriteByte(7)
	e.Float64(-0.25)
	want := binary.AppendUvarint(nil, 5)
	want = binary.AppendUvarint(want, 300)
	want = binary.AppendUvarint(want, math.MaxUint64)
	want = append(want, 7)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(-0.25))
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("encoded % x, want % x", b.Bytes(), want)
	}
	d := NewDecoder(b.Bytes(), "test: snapshot")
	if a, c, m := d.Uvarint("a"), d.Uvarint("c"), d.Uvarint("m"); a != 5 || c != 300 || m != math.MaxUint64 {
		t.Fatalf("uvarints = %d, %d, %d", a, c, m)
	}
	if by, f := d.Byte("b"), d.Float64("f"); by != 7 || f != -0.25 || d.Err() != nil || d.Rem() != 0 {
		t.Fatalf("Byte, Float64 = %d, %v, err %v, %d left", by, f, d.Err(), d.Rem())
	}
}

// TestReadForgedLengthAllocatesLittle: an envelope whose length field
// claims MaxPayload but that carries 16 bytes must be refused having
// allocated about what arrived, not the 1 GiB claimed. A payload that
// outgrows the first read buffer still round-trips.
func TestReadForgedLengthAllocatesLittle(t *testing.T) {
	raw := binary.AppendUvarint([]byte("TST1"), 3)
	raw = binary.AppendUvarint(raw, MaxPayload)
	raw = append(raw, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(bytes.NewReader(raw), "TST1")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusal allocated %d bytes, want under 1 MiB", alloc)
	}

	payload := make([]byte, 100_003)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := Write(&buf, "TST1", 3, func(w *bytes.Buffer) error { w.Write(payload); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, got, err := Read(&buf, "TST1"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: err %v, %d bytes back of %d", err, len(got), len(payload))
	}
}
