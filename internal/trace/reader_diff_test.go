package trace

// Differential matrix pinning the refilling Reader to a whole-buffer
// reference (wholeReader, whose window holds the entire encoding): same
// records, same header, same error classification at the same offsets,
// on valid traces and on every truncation and corruption of them. The
// refilling side runs over several sources (see streamedSources), so a
// record resumed mid-varint, cut by a refill, or delivered alongside
// io.EOF is covered too. The TestMmapReader* and FuzzMmapReader names
// are kept from when the reference was a memory-mapped window.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/iotest"

	"xoridx/internal/xerr"
)

// diffTraces is the valid-trace half of the differential matrix.
func diffTraces() map[string]*Trace {
	one := &Trace{Name: "one"}
	one.Append(0x40, Write)

	kinds := &Trace{Name: "kinds", Ops: 7}
	for i := uint64(0); i < 64; i++ {
		kinds.Append(i*4, Kind(i%3))
	}

	jumps := &Trace{Name: "jumps"}
	jumps.Append(1<<40, Read)
	jumps.Append(0, Read) // large negative delta
	jumps.Append(1<<63, Fetch)
	jumps.Append(42, Write)

	return map[string]*Trace{
		"empty":  {Name: "empty"},
		"sample": streamTrace(),
		"one":    one,
		"kinds":  kinds,
		"jumps":  jumps,
	}
}

// streamedSource is one way of feeding an encoding to NewReader.
type streamedSource struct {
	name string
	wrap func([]byte) io.Reader
}

// streamedSources are the refilling sides the whole-buffer reference
// is held against: the whole encoding per Read, one byte per Read
// (every record resumes mid-varint), and the last bytes delivered
// alongside io.EOF.
var streamedSources = []streamedSource{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"onebyte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"dataerr", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// wholeReader is the reference side: a Reader whose window holds the
// whole encoding after its first fill, so it never refills mid-record.
func wholeReader(data []byte) (*Reader, error) {
	rd := &Reader{src: bytes.NewReader(data), buf: make([]byte, 0, len(data)+maxRecordLen)}
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	return rd, nil
}

func TestMmapReaderMatchesReaderOnValidTraces(t *testing.T) {
	for name, tr := range diffTraces() {
		t.Run(name, func(t *testing.T) {
			data := encode(t, tr)
			for _, src := range streamedSources {
				wr, err := wholeReader(data)
				if err != nil {
					t.Fatal(err)
				}
				rd, err := NewReader(src.wrap(data))
				if err != nil {
					t.Fatal(err)
				}
				if wr.Header() != rd.Header() {
					t.Fatalf("%s: headers disagree: whole %+v, streamed %+v", src.name, wr.Header(), rd.Header())
				}
				for i := 0; ; i++ {
					wa, werr := wr.Next()
					ra, rerr := rd.Next()
					if wa != ra || !errorsEquivalent(werr, rerr) {
						t.Fatalf("%s access %d: whole (%+v, %v), streamed (%+v, %v)", src.name, i, wa, werr, ra, rerr)
					}
					if wr.Pos() != rd.Pos() || wr.Offset() != rd.Offset() {
						t.Fatalf("%s access %d: position whole %d@%d, streamed %d@%d",
							src.name, i, wr.Pos(), wr.Offset(), rd.Pos(), rd.Offset())
					}
					if werr == io.EOF {
						break
					}
					if werr != nil {
						t.Fatalf("%s access %d: unexpected decode error %v on a valid trace", src.name, i, werr)
					}
				}
			}
		})
	}
}

func TestMmapReaderReadChunkedMatchesReader(t *testing.T) {
	data := encode(t, diffTraces()["kinds"])
	for _, src := range streamedSources {
		for _, chunk := range []int{1, 3, 7, 64, 1000} {
			wr, err := wholeReader(data)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := NewReader(src.wrap(data))
			if err != nil {
				t.Fatal(err)
			}
			wbuf, rbuf := make([]Access, chunk), make([]Access, chunk)
			for {
				wn, werr := wr.Read(wbuf)
				rn, rerr := rd.Read(rbuf)
				if wn != rn || !errorsEquivalent(werr, rerr) {
					t.Fatalf("%s chunk=%d: whole (%d, %v), streamed (%d, %v)", src.name, chunk, wn, werr, rn, rerr)
				}
				for i := 0; i < wn; i++ {
					if wbuf[i] != rbuf[i] {
						t.Fatalf("%s chunk=%d: access %d: %+v vs %+v", src.name, chunk, i, wbuf[i], rbuf[i])
					}
				}
				if werr == io.EOF {
					break
				}
			}
		}
	}
}

// TestMmapReaderTruncationMatrix cuts a valid encoding at every byte
// boundary: both windows must agree on where decoding stops and how
// the failure is classified (header vs record, offset, EOF vs format).
func TestMmapReaderTruncationMatrix(t *testing.T) {
	data := encode(t, streamTrace())
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		for _, src := range streamedSources {
			if msg := diffReaders(prefix, src); msg != "" {
				t.Fatalf("cut=%d %s: %s", cut, src.name, msg)
			}
		}
	}
}

// diffReaders decodes data through wholeReader and through NewReader
// over src, and describes the first difference in header acceptance,
// decoded access, position or failure ("" when there is none).
func diffReaders(data []byte, src streamedSource) string {
	wr, werr := wholeReader(data)
	rd, rerr := NewReader(src.wrap(data))
	if (werr == nil) != (rerr == nil) {
		return fmt.Sprintf("header: whole err %v, streamed err %v", werr, rerr)
	}
	if werr != nil {
		if !formatErrorsEquivalent(werr, rerr) {
			return fmt.Sprintf("header errors diverge: %v vs %v", werr, rerr)
		}
		return ""
	}
	if wr.Header() != rd.Header() {
		return fmt.Sprintf("headers disagree: %+v vs %+v", wr.Header(), rd.Header())
	}
	for i := 0; i < 1<<20; i++ {
		wa, we := wr.Next()
		ra, re := rd.Next()
		if wa != ra || !errorsEquivalent(we, re) {
			return fmt.Sprintf("access %d: whole (%+v, %v), streamed (%+v, %v)", i, wa, we, ra, re)
		}
		if wr.Offset() != rd.Offset() {
			return fmt.Sprintf("access %d: offset whole %d, streamed %d", i, wr.Offset(), rd.Offset())
		}
		if we != nil {
			break
		}
	}
	return diffChunks(data, src)
}

// diffChunks holds Read to Next on both windows: the same accesses,
// then the same failure at the same position. A chunk of 1 stops each
// bulk run after one record; 1000 lets a run reach the end of a refill
// window or of the encoding, where Next takes over.
func diffChunks(data []byte, src streamedSource) string {
	ref, err := wholeReader(data)
	if err != nil {
		return "" // header failures are compared by diffReaders
	}
	want, wantErr := accessesVia(ref, 0)
	windows := []struct {
		name string
		open func() (*Reader, error)
	}{
		{"whole-buffer", func() (*Reader, error) { return wholeReader(data) }},
		{src.name, func() (*Reader, error) { return NewReader(src.wrap(data)) }},
	}
	for _, w := range windows {
		for _, chunk := range []int{1, 1000} {
			rd, err := w.open()
			if err != nil {
				return fmt.Sprintf("Read %s: header %v", w.name, err)
			}
			got, gotErr := accessesVia(rd, chunk)
			if !slices.Equal(got, want) || !errorsEquivalent(gotErr, wantErr) {
				return fmt.Sprintf("Read %s chunk=%d: %d accesses then %v, Next %d accesses then %v",
					w.name, chunk, len(got), gotErr, len(want), wantErr)
			}
			if rd.Pos() != ref.Pos() || rd.Offset() != ref.Offset() {
				return fmt.Sprintf("Read %s chunk=%d: stopped at %d@%d, Next at %d@%d",
					w.name, chunk, rd.Pos(), rd.Offset(), ref.Pos(), ref.Offset())
			}
		}
	}
	return ""
}

// accessesVia decodes rd to its first error: through Read with the
// given chunk, or through Next when chunk is 0.
func accessesVia(rd *Reader, chunk int) ([]Access, error) {
	var out []Access
	if chunk == 0 {
		for {
			a, err := rd.Next()
			if err != nil {
				return out, err
			}
			out = append(out, a)
		}
	}
	buf := make([]Access, chunk)
	for {
		k, err := rd.Read(buf)
		out = append(out, buf[:k]...)
		if err != nil {
			return out, err
		}
	}
}

// TestMmapReaderCorruptKindMatrix flips each record's kind byte to an
// invalid value and checks both windows fail identically.
func TestMmapReaderCorruptKindMatrix(t *testing.T) {
	tr := streamTrace()
	data := encode(t, tr)
	// Locate record starts by replaying offsets.
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	starts := []int64{rd.Offset()}
	for {
		if _, err := rd.Next(); err != nil {
			break
		}
		starts = append(starts, rd.Offset())
	}
	for rec, start := range starts[:len(starts)-1] {
		mut := append([]byte(nil), data...)
		mut[start] = 0x99
		for _, src := range streamedSources {
			if msg := diffReaders(mut, src); msg != "" {
				t.Fatalf("record %d corrupted, %s: %s", rec, src.name, msg)
			}
		}
		wr, err := wholeReader(mut)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := wr.Next(); err != nil {
				var fe *FormatError
				if !errors.As(err, &fe) || fe.Offset != start || fe.Record != uint64(rec) {
					t.Fatalf("record %d: error %v not anchored at record %d offset %d", rec, err, rec, start)
				}
				break
			}
		}
	}
}

// TestOverlongDeltaClassifiesAlike follows one record's kind byte with
// 1..16 varint continuation bytes and then plenty of trailing data:
// every window must fail (or decode) that record identically, however
// many bytes it holds past the record start.
func TestOverlongDeltaClassifiesAlike(t *testing.T) {
	head := encode(t, &Trace{Name: "long"})
	head = head[:len(head)-1] // drop the access count of zero
	for cont := 1; cont <= 16; cont++ {
		data := append([]byte(nil), head...)
		data = append(data, 2, byte(Read)) // two records declared
		data = append(data, bytes.Repeat([]byte{0xff}, cont)...)
		data = append(data, bytes.Repeat([]byte{0x01}, 32)...)
		for _, src := range streamedSources {
			if msg := diffReaders(data, src); msg != "" {
				t.Fatalf("%d continuation bytes, %s: %s", cont, src.name, msg)
			}
		}
	}
}

// TestReaderRefillBoundaries decodes traces several windows long whose
// records all have one length L, shifting the header by 0..L-1 bytes so
// that the streamed window's refills cut a record at every byte phase.
// The streamed Reader must match the whole buffer access for access and
// offset for offset, and report a cut in the last record identically.
func TestReaderRefillBoundaries(t *testing.T) {
	for l := 2; l <= maxRecordLen; l++ {
		// Alternating between 0 and hi makes every delta a varint of
		// l-1 bytes (hi = 1<<63 wraps the delta to MinInt64, 10 bytes).
		hi := uint64(1) << 63
		if l-1 < binary.MaxVarintLen64 {
			hi = uint64(1) << (7 * (l - 2))
		}
		for shift := 0; shift < l; shift++ {
			tr := &Trace{Name: string(bytes.Repeat([]byte{'s'}, shift))}
			for i := 0; i < 3*windowSize/l+l; i++ {
				tr.Append(hi*uint64(1-i%2), Fetch)
			}
			data := encode(t, tr)
			head, err := wholeReader(data)
			if err != nil {
				t.Fatal(err)
			}
			if want := head.Offset() + int64(tr.Len()*l); int64(len(data)) != want {
				t.Fatalf("L=%d: encoding is %d bytes, want %d", l, len(data), want)
			}
			// The whole-encoding source fills the window to the brim,
			// so the first refill cuts the record that spans stream
			// offset windowSize, at the phase the shift selects.
			whole := streamedSources[0]
			if msg := diffReaders(data, whole); msg != "" {
				t.Fatalf("L=%d shift=%d: %s", l, shift, msg)
			}
			if msg := diffReaders(data[:len(data)-1], whole); msg != "" {
				t.Fatalf("L=%d shift=%d, last record cut: %s", l, shift, msg)
			}
		}
	}
}

// errorsEquivalent reports whether two decode results are the same
// failure: both nil, both io.EOF, or equivalent *FormatError values.
func errorsEquivalent(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a == io.EOF || b == io.EOF {
		return a == io.EOF && b == io.EOF
	}
	return formatErrorsEquivalent(a, b)
}

func formatErrorsEquivalent(a, b error) bool {
	var fa, fb *FormatError
	if !errors.As(a, &fa) || !errors.As(b, &fb) {
		// Non-format errors (e.g. varint overflow) must at least agree
		// textually.
		return a.Error() == b.Error()
	}
	return fa.Offset == fb.Offset && fa.Record == fb.Record && fa.HaveRecord == fb.HaveRecord && fa.What == fb.What
}

// TestMmapReaderHugeDeclaredCount pins the int-overflow audit at the
// header level: a trace declaring 2^33 accesses (far past int32) must
// report its length undamaged and then fail with a format error — not
// a short silent EOF — when the records are missing.
func TestMmapReaderHugeDeclaredCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	put(4)
	buf.WriteString("huge")
	put(0)           // ops
	put(1 << 33)     // declared accesses
	buf.WriteByte(0) // one Read record, delta 0
	buf.Write(tmp[:binary.PutVarint(tmp[:], 16)])

	check := func(name string, r *Reader) {
		if r.Header().Len != 1<<33 {
			t.Fatalf("%s: Header().Len = %d, want %d", name, r.Header().Len, uint64(1)<<33)
		}
		if _, err := r.Next(); err != nil {
			t.Fatalf("%s: first record: %v", name, err)
		}
		_, err := r.Next()
		if err == io.EOF || err == nil {
			t.Fatalf("%s: missing record %d gave %v, want a format error", name, 1, err)
		}
		if !errors.Is(err, xerr.ErrFormat) {
			t.Fatalf("%s: error %v does not wrap xerr.ErrFormat", name, err)
		}
	}
	wr, err := wholeReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	check("whole-buffer", wr)
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	check("streamed", rd)
}

// TestEncodeGoldenBytes pins the XTR1 encoding itself, so a change to
// the Writer cannot move the format unnoticed: the expected bytes were
// recorded from the encoder before Encode became a Writer.
func TestEncodeGoldenBytes(t *testing.T) {
	golden := map[string]string{
		"kinds": "58545231056b696e64730740000001080210001801180218001801180218001801180218001801180218" +
			"001801180218001801180218001801180218001801180218001801180218001801180218001801180218" +
			"001801180218001801180218001801180218001801180218001801180218001801180218001801180218" +
			"0018011802180018011802180018",
		"jumps": "58545231056a756d707300040080808080804000ffffffffff3f02ffffffffffffffffff010154",
	}
	for name, want := range golden {
		tr := diffTraces()[name]
		data := encode(t, tr)
		if got := hex.EncodeToString(data); got != want {
			t.Fatalf("%s: encoding\n%s\nwant\n%s", name, got, want)
		}
		back, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if back.Name != tr.Name || back.Ops != tr.Ops || len(back.Accesses) != len(tr.Accesses) {
			t.Fatalf("%s: golden bytes decode to a different header", name)
		}
		for i := range tr.Accesses {
			if back.Accesses[i] != tr.Accesses[i] {
				t.Fatalf("%s: golden bytes decode access %d to %+v, want %+v", name, i, back.Accesses[i], tr.Accesses[i])
			}
		}
	}
}

func TestWriterEnforcesDeclaredCount(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "short", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAccess(Access{Addr: 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted an underfilled writer")
	}
	if err := w.WriteAccess(Access{Addr: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAccess(Access{Addr: 12}); err == nil {
		t.Fatal("writer accepted more accesses than declared")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFallsBackOnUnparsableHeader: a corrupt file must fail through
// OpenFile with the same format error the streamed Reader reports.
func TestOpenFallsBackOnUnparsableHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.xtr")
	if err := os.WriteFile(path, []byte("NOPE...."), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(context.Background(), path, 0)
	if err == nil {
		t.Fatal("corrupt header accepted")
	}
	if !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("error %v does not wrap xerr.ErrFormat", err)
	}
	if _, want := NewReader(bytes.NewReader([]byte("NOPE...."))); !formatErrorsEquivalent(err, want) {
		t.Fatalf("OpenFile error %v, streamed Reader error %v", err, want)
	}
}

// TestOpenTruncatedWhileReading truncates a trace file under the Reader
// of an open File pass: decoding must deliver the records it already
// holds, then stop
// with a *FormatError anchored at the record the refill could not
// complete, not fault on vanished file pages.
func TestOpenTruncatedWhileReading(t *testing.T) {
	tr := &Trace{Name: "shrinking"}
	for i := uint64(0); i < 200_000; i++ {
		tr.Append(i*64, Read)
	}
	path := filepath.Join(t.TempDir(), "t.xtr")
	if err := os.WriteFile(path, encode(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := (&File{path: path}).open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	var got []Access
	buf := make([]Access, 1000)
	for err == nil {
		var k int
		k, err = rd.Read(buf)
		got = append(got, buf[:k]...)
	}
	if want := tr.Accesses[:len(got)]; !slices.Equal(got, want) {
		t.Fatal("accesses decoded before the cut differ from the trace")
	}
	var fe *FormatError
	if !errors.As(err, &fe) || !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("truncated file: %v, want a *FormatError wrapping xerr.ErrFormat", err)
	}
	if !fe.HaveRecord || fe.Record != rd.Pos() || fe.Offset != rd.Offset() || fe.Offset >= windowSize {
		t.Fatalf("error %v anchored at record %d offset %d, reader stopped at %d@%d", err,
			fe.Record, fe.Offset, rd.Pos(), rd.Offset())
	}
}

// FuzzMmapReader feeds arbitrary bytes to the whole-buffer reference
// and to the refilling window, whole and one byte per Read, and requires identical
// behavior: header acceptance, every decoded access, and the
// classification and anchoring of the first failure.
func FuzzMmapReader(f *testing.F) {
	for _, tr := range diffTraces() {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if buf.Len() > 4 {
			f.Add(buf.Bytes()[:buf.Len()/2])
		}
	}
	f.Add([]byte("XTR1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, src := range streamedSources[:2] {
			if msg := diffReaders(data, src); msg != "" {
				t.Fatalf("%s: %s", src.name, msg)
			}
		}
	})
}
