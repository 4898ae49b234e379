// Package ckpt provides the snapshot envelope shared by every
// checkpointable stage of the pipeline: a magic tag, a format version,
// a length-prefixed payload and a trailing CRC-32C, plus an atomic
// (temp-file + rename) file writer.
//
// The envelope makes corruption detectable before any payload byte is
// interpreted: a snapshot either round-trips bit-identically or fails
// with a wrapped xerr.ErrFormat — never a panic, never a silently
// half-read state. The profiling and serving layers define their own
// payload formats (profile.Builder.Checkpoint, serve's XSV1 service
// state) on top of this envelope, and read them back with Decoder.
//
// Wire layout:
//
//	magic    (4 bytes, per snapshot kind)
//	version  (uvarint)
//	length   (uvarint, payload bytes)
//	payload  (length bytes)
//	crc32c   (4 bytes little-endian, over magic..payload)
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"xoridx/internal/xerr"
)

// MaxPayload bounds a snapshot payload (1 GiB): large enough for a
// full 2^24-entry flat histogram with headroom, small enough that a
// corrupt length field cannot drive an allocation to OOM.
const MaxPayload = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write serialises one envelope: the payload callback receives a
// buffered writer and the envelope (version, length, CRC) is wrapped
// around whatever it produced.
func Write(w io.Writer, magic string, version uint64, payload func(w *bytes.Buffer) error) error {
	if len(magic) != 4 {
		return fmt.Errorf("ckpt: magic %q must be 4 bytes: %w", magic, xerr.ErrInvalidOptions)
	}
	var body bytes.Buffer
	if err := payload(&body); err != nil {
		return err
	}
	if body.Len() > MaxPayload {
		return fmt.Errorf("ckpt: payload of %d bytes exceeds MaxPayload: %w", body.Len(), xerr.ErrInvalidOptions)
	}
	var head bytes.Buffer
	head.WriteString(magic)
	var buf [binary.MaxVarintLen64]byte
	head.Write(buf[:binary.PutUvarint(buf[:], version)])
	head.Write(buf[:binary.PutUvarint(buf[:], uint64(body.Len()))])
	crc := crc32.Update(0, castagnoli, head.Bytes())
	crc = crc32.Update(crc, castagnoli, body.Bytes())
	if _, err := w.Write(head.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], crc)
	_, err := w.Write(buf[:4])
	return err
}

// Read parses one envelope, verifies the magic and the CRC, and
// returns the format version and the payload bytes. Every decode
// failure — wrong magic, truncation, a CRC mismatch — is a wrapped
// xerr.ErrFormat.
func Read(r io.Reader, magic string) (version uint64, payload []byte, err error) {
	if len(magic) != 4 {
		return 0, nil, fmt.Errorf("ckpt: magic %q must be 4 bytes: %w", magic, xerr.ErrInvalidOptions)
	}
	br := newCRCReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, nil, fmt.Errorf("ckpt: reading magic: %w: %w", xerr.ErrFormat, err)
	}
	if string(head) != magic {
		return 0, nil, fmt.Errorf("ckpt: magic %q, want %q: %w", head, magic, xerr.ErrFormat)
	}
	version, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: reading version: %w: %w", xerr.ErrFormat, err)
	}
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: reading payload length: %w: %w", xerr.ErrFormat, err)
	}
	if length > MaxPayload {
		return 0, nil, fmt.Errorf("ckpt: payload length %d exceeds MaxPayload: %w", length, xerr.ErrFormat)
	}
	payload, err = ReadN(br, length)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: reading %d-byte payload: %w: %w", length, xerr.ErrFormat, err)
	}
	want := br.crc
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("ckpt: reading checksum: %w: %w", xerr.ErrFormat, err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return 0, nil, fmt.Errorf("ckpt: checksum mismatch (stored %08x, computed %08x): %w", got, want, xerr.ErrFormat)
	}
	return version, payload, nil
}

// ReadN reads exactly n bytes from r, the way io.ReadFull does, into a
// buffer that doubles as the bytes arrive instead of one made at the
// claimed length: a corrupt length field then costs memory only for
// the bytes that are really there.
func ReadN(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, 0, min(n, 4096))
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(len(buf)))))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(uint64(cap(buf)), n)])
		buf = buf[:len(buf)+k]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// crcReader accumulates the CRC-32C of everything read through it; the
// single-byte ReadByte is what binary.ReadUvarint needs.
type crcReader struct {
	r   io.Reader
	crc uint32
	one [1]byte
}

func newCRCReader(r io.Reader) *crcReader { return &crcReader{r: r} }

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(c.r, c.one[:]); err != nil {
		return 0, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, c.one[:])
	return c.one[0], nil
}

// WriteFileAtomic writes a snapshot file so that a crash at any moment
// leaves either the previous complete file or the new complete file,
// never a torn one: the content goes to a temp file in the same
// directory, is fsynced, and is renamed over the destination.
func WriteFileAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
