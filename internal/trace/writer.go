package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"xoridx/internal/xerr"
)

// Writer streams accesses into the binary format one record at a time —
// the encode-side mirror of Reader, for producers whose traces do not
// fit in memory (cmd/tracegen -stream). The header is written eagerly
// by NewWriter, which is why the access count must be declared up
// front: the XTR1 header carries it before the first record. Close
// verifies the declaration and flushes; a Writer must not be shared
// between goroutines.
//
// Memory is bounded by the windowSize flush buffer regardless of trace
// length, so a multi-GB trace streams to disk without ever
// materializing a Trace. Encode is a Writer over an in-memory Trace.
type Writer struct {
	bw       *bufio.Writer
	declared uint64
	written  uint64
	prev     [3]uint64
	buf      [binary.MaxVarintLen64]byte
}

// NewWriter writes the XTR1 header and returns a streaming encoder
// positioned at the first access record. count is the exact number of
// accesses the caller will write; Close fails if the tally differs.
func NewWriter(w io.Writer, name string, ops, count uint64) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriterSize(w, windowSize), declared: count}
	if _, err := tw.bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := tw.putUvarint(uint64(len(name))); err != nil {
		return nil, err
	}
	if _, err := tw.bw.WriteString(name); err != nil {
		return nil, err
	}
	if err := tw.putUvarint(ops); err != nil {
		return nil, err
	}
	if err := tw.putUvarint(count); err != nil {
		return nil, err
	}
	return tw, nil
}

func (w *Writer) putUvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.bw.Write(w.buf[:n])
	return err
}

// WriteAccess appends one access record: the kind byte plus the
// signed varint delta against the previous same-kind address.
func (w *Writer) WriteAccess(a Access) error {
	if w.written >= w.declared {
		return fmt.Errorf("trace: writer declared %d accesses, got more: %w", w.declared, xerr.ErrInvalidOptions)
	}
	if a.Kind > Fetch {
		return fmt.Errorf("trace: cannot encode kind %d: %w", a.Kind, xerr.ErrFormat)
	}
	if err := w.bw.WriteByte(byte(a.Kind)); err != nil {
		return err
	}
	delta := int64(a.Addr) - int64(w.prev[a.Kind])
	if err := w.putVarint(delta); err != nil {
		return err
	}
	w.prev[a.Kind] = a.Addr
	w.written++
	return nil
}

func (w *Writer) putVarint(v int64) error {
	n := binary.PutVarint(w.buf[:], v)
	_, err := w.bw.Write(w.buf[:n])
	return err
}

// Close flushes the stream after verifying that exactly the declared
// number of accesses was written — a mismatched count would make the
// trace undecodable past the shortfall.
func (w *Writer) Close() error {
	if w.written != w.declared {
		return fmt.Errorf("trace: writer declared %d accesses, wrote %d: %w",
			w.declared, w.written, xerr.ErrInvalidOptions)
	}
	return w.bw.Flush()
}
