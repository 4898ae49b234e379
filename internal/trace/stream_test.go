package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"xoridx/internal/xerr"
)

func streamTrace() *Trace {
	t := &Trace{Name: "sample", Ops: 999}
	t.Append(0x1000, Read)
	t.Append(0x1004, Write)
	t.Append(0x80000, Fetch)
	t.Append(0x1008, Read)
	t.Append(1<<40, Read) // large delta
	t.Append(0x100C, Write)
	return t
}

func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReaderHeader(t *testing.T) {
	tr := streamTrace()
	rd, err := NewReader(bytes.NewReader(encode(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if h := rd.Header(); h != (Header{Name: "sample", Ops: 999, Len: 6}) || rd.Pos() != 0 {
		t.Fatalf("header: %+v pos=%d", h, rd.Pos())
	}
}

func TestReaderNextMatchesDecode(t *testing.T) {
	tr := streamTrace()
	data := encode(t, tr)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range tr.Accesses {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("access %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after end: err = %v, want io.EOF", err)
	}
	// EOF is sticky.
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("repeated Next after end: err = %v, want io.EOF", err)
	}
}

func TestReaderReadChunked(t *testing.T) {
	tr := streamTrace()
	data := encode(t, tr)
	for _, chunk := range []int{1, 2, 3, 5, 100} {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var got []Access
		buf := make([]Access, chunk)
		for {
			k, err := rd.Read(buf)
			got = append(got, buf[:k]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(tr.Accesses) {
			t.Fatalf("chunk=%d: %d accesses, want %d", chunk, len(got), len(tr.Accesses))
		}
		for i, want := range tr.Accesses {
			if got[i] != want {
				t.Fatalf("chunk=%d access %d: %+v, want %+v", chunk, i, got[i], want)
			}
		}
	}
}

func TestReaderResumesMidRecordByteStream(t *testing.T) {
	// A one-byte-at-a-time source forces the reader to resume decoding
	// in the middle of multi-byte varint records.
	tr := streamTrace()
	rd, err := NewReader(iotest.OneByteReader(bytes.NewReader(encode(t, tr))))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Accesses) != len(tr.Accesses) {
		t.Fatalf("%d accesses, want %d", len(out.Accesses), len(tr.Accesses))
	}
	for i := range tr.Accesses {
		if out.Accesses[i] != tr.Accesses[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestReaderTruncatedMidRecord(t *testing.T) {
	data := encode(t, streamTrace())
	for _, cut := range []int{1, 5} {
		rd, err := NewReader(bytes.NewReader(data[:len(data)-cut]))
		if err != nil {
			t.Fatalf("cut=%d: header should parse: %v", cut, err)
		}
		if _, err := rd.ReadAll(); err == nil {
			t.Fatalf("cut=%d: truncated trace decoded without error", cut)
		}
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReaderEmptyBuffer(t *testing.T) {
	rd, err := NewReader(bytes.NewReader(encode(t, streamTrace())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Read(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestDecodeIsReaderReadAll(t *testing.T) {
	data := encode(t, streamTrace())
	a, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || a.Ops != b.Ops || len(a.Accesses) != len(b.Accesses) {
		t.Fatal("Decode and Reader.ReadAll disagree")
	}
}

// --- resilience contract: typed format errors, offsets, transient resume ---

func TestTruncationReportsFormatErrorWithOffset(t *testing.T) {
	data := encode(t, streamTrace())
	for cut := 1; cut < 8; cut++ {
		rd, err := NewReader(bytes.NewReader(data[:len(data)-cut]))
		if err != nil {
			t.Fatalf("cut=%d: header should parse: %v", cut, err)
		}
		_, err = rd.ReadAll()
		if err == nil {
			t.Fatalf("cut=%d: truncated trace decoded without error", cut)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("cut=%d: error %v is not a *FormatError", cut, err)
		}
		if !errors.Is(err, xerr.ErrFormat) {
			t.Fatalf("cut=%d: error %v does not wrap xerr.ErrFormat", cut, err)
		}
		if !fe.HaveRecord {
			t.Fatalf("cut=%d: mid-record truncation not flagged as a record error: %v", cut, err)
		}
		if fe.Offset <= 0 || fe.Offset >= int64(len(data)) {
			t.Fatalf("cut=%d: implausible failure offset %d (stream is %d bytes)", cut, fe.Offset, len(data))
		}
	}
}

func TestHeaderTruncationReportsFormatError(t *testing.T) {
	data := encode(t, streamTrace())
	// Every prefix that ends inside the header must fail with a
	// FormatError (never succeed, never panic).
	for cut := 0; cut < 10 && cut < len(data); cut++ {
		_, err := NewReader(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("header prefix of %d bytes accepted", cut)
		}
		if !errors.Is(err, xerr.ErrFormat) {
			t.Fatalf("cut=%d: header error %v does not wrap xerr.ErrFormat", cut, err)
		}
	}
}

func TestInvalidKindRejectedWithOffset(t *testing.T) {
	data := encode(t, streamTrace())
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil { // consume one good record
		t.Fatal(err)
	}
	recordStart := rd.Offset()
	// Corrupt the second record's kind byte.
	mut := append([]byte(nil), data...)
	mut[recordStart] = 0x7F
	rd2, err := NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd2.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = rd2.Next()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("invalid kind error %v is not a *FormatError", err)
	}
	if fe.Offset != recordStart {
		t.Errorf("failure offset %d, want record start %d", fe.Offset, recordStart)
	}
	if fe.Record != 1 {
		t.Errorf("failure record %d, want 1", fe.Record)
	}
}

// flakyReader delivers clean bytes fault-free, then fails every other
// read attempt without consuming data — the shape of a transient EIO.
type flakyReader struct {
	r     io.Reader
	clean int64 // bytes delivered before faults start
	sent  int64
	fails int
	next  bool
}

func (f *flakyReader) Read(p []byte) (int, error) {
	if f.sent >= f.clean {
		f.next = !f.next
		if f.next {
			f.fails++
			return 0, fmt.Errorf("flaky: %w", xerr.ErrIO)
		}
	}
	n, err := f.r.Read(p)
	f.sent += int64(n)
	return n, err
}

// TestNextResumesAfterTransientError: a transient failure consumes
// nothing, so simply calling Next again must decode the full trace.
// One-byte underlying reads force the faults to land mid-record.
func TestNextResumesAfterTransientError(t *testing.T) {
	tr := streamTrace()
	data := encode(t, tr)
	headerLen := func() int64 { // bytes the header occupies
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return rd.Offset()
	}()
	fr := &flakyReader{r: iotest.OneByteReader(bytes.NewReader(data)), clean: headerLen}
	rd, err := NewReader(fr)
	if err != nil {
		t.Fatal(err)
	}
	var got []Access
	for {
		a, err := rd.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, xerr.ErrIO) {
			continue // retry the same record
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	if len(got) != len(tr.Accesses) {
		t.Fatalf("decoded %d accesses across transients, want %d", len(got), len(tr.Accesses))
	}
	for i := range got {
		if got[i] != tr.Accesses[i] {
			t.Fatalf("access %d differs after transient retries", i)
		}
	}
	if fr.fails == 0 {
		t.Fatal("flaky reader never fired")
	}
}

func TestOffsetTracksConsumedBytes(t *testing.T) {
	data := encode(t, streamTrace())
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	last := rd.Offset()
	if last <= 0 {
		t.Fatalf("header consumed %d bytes", last)
	}
	for {
		_, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rd.Offset() <= last {
			t.Fatalf("offset did not advance past %d", last)
		}
		last = rd.Offset()
	}
	if last != int64(len(data)) {
		t.Errorf("final offset %d, want stream length %d", last, len(data))
	}
}
