package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Reader streams accesses out of the binary format, one record (Next)
// or one chunk (Read, Chunk) at a time, without materializing the
// whole trace. It is each pass of a File, the Source that profiling
// and exact validation read a trace file through.
//
// Records are decoded from a fixed-size window, buf[pos:], that the
// Reader refills from its source whenever fewer than maxRecordLen bytes
// are left.
//
// The header (name, ops, access count) is parsed eagerly by the
// constructor; records are decoded lazily by Next / Read. A
// Reader must not be shared between goroutines.
//
// Error contract (the resilience layer depends on all three):
//
//   - Corrupt or truncated input — a bad magic, an invalid Kind byte,
//     an overlong varint, a mid-record EOF — returns a *FormatError
//     wrapping xerr.ErrFormat and carrying the byte offset of the
//     failure.
//   - Any other failure of the source (e.g. a transient EIO from
//     faulty media) passes through unclassified, so callers can test
//     it with faultio.IsTransient and retry. Bytes delivered alongside
//     the error stay in the window.
//   - Record decoding is atomic: Next consumes no bytes unless the
//     whole record parses, so after a transient failure the very same
//     Next call can simply be repeated.
type Reader struct {
	src   io.Reader // refills buf
	buf   []byte    // buf[pos:] is the undecoded window
	pos   int
	base  int64 // stream offset of buf[0]
	name  string
	ops   uint64
	count uint64 // total accesses declared in the header
	read  uint64 // accesses decoded so far
	prev  [3]uint64
	chunk []Access // Chunk's buffer
	close func() error
}

// maxRecordLen is the longest possible access record: one kind byte
// plus a maximal signed varint. Next never looks further than this
// past a record's start, whatever the source, so an overlong varint
// classifies the same wherever the window happens to end.
const maxRecordLen = 1 + binary.MaxVarintLen64

// windowSize is the refill buffer of a Reader and the flush buffer of
// a Writer. Neither size is a tuning knob: on a 2-CPU x86-64
// Linux VM, decoding a 2M-access (4.4 MB) trace in bulk took
// the same time within run-to-run noise with windows from 4 KiB to
// 1 MiB (medians 13-16 ms, 40 decodes each), and so did writing a
// 40M-access (115 MB) trace with cmd/tracegen -stream through 4 KiB,
// 64 KiB and 1 MiB buffers (medians 1.08-1.11 s, 6 alternating runs
// each). 64 KiB keeps calls rare (one per ~32k records) and the buffer
// small next to the profiler's working set.
const windowSize = 64 << 10

// maxEmptyReads bounds how often the source may return no bytes and
// no error before the Reader reports io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// NewReader parses the header of a binary-format trace read from r
// and returns a streaming reader positioned at the first access
// record.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{src: r, buf: make([]byte, 0, windowSize)}
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	return rd, nil
}

// Close closes the file a File pass opened. It does not close the
// io.Reader given to NewReader. Safe to call more than once; no other
// method may be used afterwards.
func (r *Reader) Close() error {
	c := r.close
	r.close, r.src, r.buf = nil, nil, nil
	if c == nil {
		return nil
	}
	return c()
}

// fill makes the window hold at least n undecoded bytes. It returns
// nil once they are there and otherwise why not: io.EOF at the end of
// the encoding, or the source's own error. Bytes read alongside an
// error stay in the window.
func (r *Reader) fill(n int) error {
	if len(r.buf)-r.pos >= n {
		return nil
	}
	// Slide the undecoded tail to the front (growing the buffer only
	// for a header name longer than the window) and read behind it.
	buf := r.buf
	if cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	k := copy(buf[:cap(buf)], r.buf[r.pos:])
	r.base += int64(r.pos)
	r.buf, r.pos = buf[:k], 0
	for empty := 0; len(r.buf) < n; {
		m, err := r.src.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+m]
		if err != nil && len(r.buf) < n {
			return err
		}
		if m == 0 && err == nil {
			if empty++; empty == maxEmptyReads {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// readHeader parses magic, name, ops and access count off the front of
// the window.
func (r *Reader) readHeader() error {
	if err := r.fill(len(magic)); err != nil {
		return r.headerErr("magic", err)
	}
	if head := r.buf[r.pos : r.pos+len(magic)]; string(head) != magic {
		return &FormatError{Offset: 0, What: fmt.Sprintf("magic %q", head)}
	}
	r.pos += len(magic)
	nameLen, err := r.headerUvarint("name length")
	if err != nil {
		return err
	}
	if nameLen > 1<<20 {
		return &FormatError{Offset: r.Offset(), What: fmt.Sprintf("unreasonable name length %d", nameLen)}
	}
	if err := r.fill(int(nameLen)); err != nil {
		return r.headerErr("name", err)
	}
	r.name = string(r.buf[r.pos : r.pos+int(nameLen)])
	r.pos += int(nameLen)
	if r.ops, err = r.headerUvarint("ops"); err != nil {
		return err
	}
	r.count, err = r.headerUvarint("access count")
	return err
}

// headerUvarint decodes one header varint. A varint that runs past
// MaxVarintLen64 bytes is corrupt even if the encoding ends right
// there.
func (r *Reader) headerUvarint(what string) (uint64, error) {
	err := r.fill(binary.MaxVarintLen64)
	win := r.buf[r.pos:]
	if len(win) > binary.MaxVarintLen64 {
		win = win[:binary.MaxVarintLen64]
	}
	v, k := binary.Uvarint(win)
	if k > 0 {
		r.pos += k
		return v, nil
	}
	if k == 0 && err != nil {
		return 0, r.headerErr(what, err)
	}
	return 0, &FormatError{Offset: r.Offset(), What: what + " varint overflow"}
}

// headerErr classifies a header field the window could not supply:
// the end of the encoding is truncation, anything else passes through.
func (r *Reader) headerErr(what string, err error) error {
	if isEOFish(err) {
		return &FormatError{Offset: r.Offset(), What: what, Err: io.ErrUnexpectedEOF}
	}
	return fmt.Errorf("trace: reading %s at byte offset %d: %w", what, r.Offset(), err)
}

// isEOFish reports whether err means the stream ended (as opposed to
// failing transiently).
func isEOFish(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Header returns the header the constructor parsed.
func (r *Reader) Header() Header { return Header{Name: r.name, Ops: r.ops, Len: r.count} }

// Pos returns the number of accesses decoded so far.
func (r *Reader) Pos() uint64 { return r.read }

// Offset returns the byte offset into the encoded stream consumed so
// far (header included).
func (r *Reader) Offset() int64 { return r.base + int64(r.pos) }

// Next decodes the next access. After the last declared record it
// returns io.EOF. A *FormatError (wrapping xerr.ErrFormat, carrying
// the record's byte offset) means malformed or truncated input; any
// other error is an underlying read failure, after which Next may be
// called again — no bytes are consumed unless a whole record parses.
func (r *Reader) Next() (Access, error) {
	if r.read >= r.count {
		return Access{}, io.EOF
	}
	var fillErr error
	if len(r.buf)-r.pos < maxRecordLen {
		fillErr = r.fill(maxRecordLen)
	}
	rec := r.buf[r.pos:]
	if len(rec) > maxRecordLen {
		rec = rec[:maxRecordLen]
	}
	if len(rec) == 0 {
		return Access{}, r.truncated("kind", fillErr)
	}
	kb := rec[0]
	if Kind(kb) > Fetch {
		return Access{}, &FormatError{Offset: r.Offset(), Record: r.read, HaveRecord: true,
			What: fmt.Sprintf("invalid kind %d", kb)}
	}
	delta, k := binary.Varint(rec[1:])
	if k < 0 {
		return Access{}, &FormatError{Offset: r.Offset(), Record: r.read, HaveRecord: true,
			What: "delta varint overflow"}
	}
	if k == 0 {
		return Access{}, r.truncated("delta", fillErr)
	}
	// The record parsed in full: consume it atomically.
	r.pos += 1 + k
	addr := uint64(int64(r.prev[kb]) + delta)
	r.prev[kb] = addr
	r.read++
	return Access{Addr: addr, Kind: Kind(kb)}, nil
}

// truncated classifies a record the window ended inside: either the
// encoding is truncated (or the varint is overlong) mid-record, or a
// refill failed transiently. Nothing has been consumed either way.
func (r *Reader) truncated(what string, fillErr error) error {
	if fillErr == nil || isEOFish(fillErr) {
		return &FormatError{Offset: r.Offset(), Record: r.read, HaveRecord: true,
			What: what, Err: io.ErrUnexpectedEOF}
	}
	return fmt.Errorf("trace: access %d read at byte offset %d: %w", r.read, r.Offset(), fillErr)
}

// Read decodes the next accesses into dst: (k, nil) with 0 < k <=
// len(dst) while records remain, then (0, io.EOF). Any buffer size
// works, including 1. After a transient read failure (neither io.EOF
// nor a *FormatError) dst[:k] holds what was decoded before it, and
// calling Read again resumes exactly where it stopped.
func (r *Reader) Read(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, errors.New("trace: Read needs a non-empty buffer")
	}
	i := 0
	for {
		if i += r.decodeRun(dst[i:]); i == len(dst) {
			return i, nil
		}
		// The run stopped short: Next takes the record it left, refilling
		// the window or reporting the end of the trace or the failure.
		a, err := r.Next()
		if err == io.EOF {
			if i == 0 {
				return 0, io.EOF
			}
			return i, nil
		}
		if err != nil {
			return i, err
		}
		dst[i] = a
		i++
	}
}

// Chunk is Read into a ChunkLen buffer the Reader keeps: a Reader is
// the Pass of a File.
func (r *Reader) Chunk() ([]Access, error) {
	if r.chunk == nil {
		r.chunk = make([]Access, ChunkLen)
	}
	k, err := r.Read(r.chunk)
	return r.chunk[:k], err
}

// decodeRun is the one bulk decode loop, under Read: it decodes records
// straight out of the window into dst, keeping the cursor and the
// per-kind bases in locals, for as long as a maximal record fits in the
// window. It stops before the first record it cannot take on sight —
// one a refill must complete, one past the declared count, or a
// malformed one — and leaves that record to Next, which owns every
// refill and every error.
func (r *Reader) decodeRun(dst []Access) int {
	if left := r.count - r.read; uint64(len(dst)) > left {
		dst = dst[:left]
	}
	buf, pos, prev := r.buf, r.pos, r.prev
	i := 0
	for ; i < len(dst) && pos <= len(buf)-maxRecordLen; i++ {
		kb := buf[pos]
		if kb > byte(Fetch) {
			break
		}
		// Most deltas fit one varint byte; binary.Varint is a call, so
		// that case is decoded here and the rest go through Uvarint.
		ux, k := uint64(buf[pos+1]), 1
		if ux >= 0x80 {
			if ux, k = binary.Uvarint(buf[pos+1 : pos+maxRecordLen]); k <= 0 {
				break
			}
		}
		delta := int64(ux >> 1) // zigzag, as binary.Varint
		if ux&1 != 0 {
			delta = ^delta
		}
		addr := prev[kb] + uint64(delta)
		prev[kb] = addr
		dst[i] = Access{Addr: addr, Kind: Kind(kb)}
		pos += 1 + k
	}
	r.pos, r.prev = pos, prev
	r.read += uint64(i)
	return i
}

// ReadAll decodes every remaining access into an in-memory Trace —
// Decode is NewReader + ReadAll. It preallocates only below 2^24
// remaining accesses, so a lying header count cannot force the claim.
func (r *Reader) ReadAll() (*Trace, error) {
	t := &Trace{Name: r.name, Ops: r.ops}
	if remaining := r.count - r.read; remaining < 1<<24 {
		t.Accesses = make([]Access, 0, remaining)
	}
	for left := r.count - r.read; left > 0; left = r.count - r.read {
		t.Accesses = slices.Grow(t.Accesses, int(min(left, ChunkLen)))
		n := len(t.Accesses)
		k, err := r.Read(t.Accesses[n:cap(t.Accesses)])
		t.Accesses = t.Accesses[:n+k]
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
