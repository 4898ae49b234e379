package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"xoridx/internal/xerr"
)

// Encoder appends the primitives of a snapshot payload, the ones
// Decoder reads back. Byte writes go straight to the embedded buffer.
type Encoder struct{ *bytes.Buffer }

// Put appends each value as one unsigned varint.
func (e Encoder) Put(vs ...uint64) {
	for _, v := range vs {
		e.Write(binary.AppendUvarint(e.AvailableBuffer(), v))
	}
}

// Float64 appends f as its IEEE 754 bits, 8 bytes little endian.
func (e Encoder) Float64(f float64) {
	e.Write(binary.LittleEndian.AppendUint64(e.AvailableBuffer(), math.Float64bits(f)))
}

// Decoder reads the primitives of a snapshot payload. It latches the
// first failure as a wrapped xerr.ErrFormat: once Err is set every read
// returns zero, so a codec can decode a run of fields and check Err
// once.
type Decoder struct {
	b      []byte
	prefix string
	err    error
}

// NewDecoder decodes payload. prefix names the snapshot in errors
// (e.g. "profile: snapshot"); the field being read follows it.
func NewDecoder(payload []byte, prefix string) *Decoder {
	return &Decoder{b: payload, prefix: prefix}
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.err = fmt.Errorf("%s %s: truncated or overlong varint: %w", d.prefix, what, xerr.ErrFormat)
		return 0
	}
	d.b = d.b[k:]
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte(what string) byte {
	if d.err != nil || !d.need(1, what) {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Float64 reads a float64 stored as its IEEE 754 bits, 8 bytes little
// endian.
func (d *Decoder) Float64(what string) float64 {
	if d.err != nil || !d.need(8, what) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[:8])
	d.b = d.b[8:]
	return math.Float64frombits(v)
}

// need latches a truncation error unless n bytes remain.
func (d *Decoder) need(n int, what string) bool {
	if len(d.b) < n {
		d.err = fmt.Errorf("%s %s: truncated: %w", d.prefix, what, xerr.ErrFormat)
		return false
	}
	return true
}

// Rem returns how many payload bytes are left unread.
func (d *Decoder) Rem() int { return len(d.b) }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }
