package profile

// Checkpoint/resume for the profiling pass. A snapshot captures the
// complete state of a sequential Builder mid-trace — the LRU stack,
// the conflict-vector histogram and the bookkeeping counters — inside
// the versioned, CRC-checked ckpt envelope, so a run killed at any
// checkpoint boundary resumes bit-identically to an uninterrupted one
// (the differential tests in checkpoint_test.go prove it). The stream
// position is the Accesses counter: a resumed build skips that many
// block accesses of its source and continues.
//
// Restore never trusts the payload: geometry, counter arithmetic
// (Accesses = Compulsory + Capacity + Candidates), the histogram/
// TotalPairs equality, histogram ordering and the stack/Compulsory
// equality are all re-validated, so a corrupted-but-CRC-colliding
// snapshot still fails with a wrapped xerr.ErrFormat instead of
// poisoning the profile (see FuzzCheckpointCodec).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"xoridx/internal/ckpt"
	"xoridx/internal/gf2"
	"xoridx/internal/lru"
	"xoridx/internal/xerr"
)

const (
	checkpointMagic   = "XPC1"
	checkpointVersion = 1
)

// Pos returns the number of accesses the builder has consumed — the
// stream position a resumed build must skip to.
func (bd *Builder) Pos() uint64 { return bd.p.Accesses }

// Checkpoint serialises the builder's full profiling state. The
// builder remains usable; snapshots may be taken at any access
// boundary.
func (bd *Builder) Checkpoint(w io.Writer) error {
	if bd.done {
		return fmt.Errorf("profile: Checkpoint after Finish: %w", xerr.ErrInvalidOptions)
	}
	if bd.sampleK > 1 {
		// The XPC1 snapshot does not carry the sampling gate's position
		// in the global candidate stream, so a resume would silently
		// sample a different subset than the uninterrupted pass.
		return fmt.Errorf("profile: Checkpoint of a sampled builder: %w", xerr.ErrInvalidOptions)
	}
	if bd.p.Sketch != nil {
		return fmt.Errorf("profile: Checkpoint of a sketch-backed builder: %w", xerr.ErrInvalidOptions)
	}
	p := bd.p
	return ckpt.Write(w, checkpointMagic, checkpointVersion, func(b *bytes.Buffer) error {
		var buf [binary.MaxVarintLen64]byte
		put := func(v uint64) { b.Write(buf[:binary.PutUvarint(buf[:], v)]) }
		put(uint64(p.N))
		put(uint64(p.CacheBlocks))
		if p.Sparse != nil {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		put(p.Accesses)
		put(p.Compulsory)
		put(p.Capacity)
		put(p.Candidates)
		put(p.TotalPairs)
		stack := bd.stack.Blocks()
		put(uint64(len(stack)))
		for _, blk := range stack {
			put(blk)
		}
		support := p.Support()
		put(uint64(len(support)))
		prev := uint64(0)
		for _, vc := range support {
			// Vectors are strictly ascending; delta coding keeps dense
			// histograms compact.
			put(uint64(vc.Vec) - prev)
			put(vc.Count)
			prev = uint64(vc.Vec)
		}
		return nil
	})
}

// Restore rebuilds a Builder from a Checkpoint snapshot. Corruption at
// any layer — envelope, counters, histogram, stack — returns a wrapped
// xerr.ErrFormat; a successful restore is bit-identical to the builder
// that was checkpointed.
func Restore(r io.Reader) (*Builder, error) {
	version, payload, err := ckpt.Read(r, checkpointMagic)
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("profile: snapshot version %d, this build reads %d: %w",
			version, checkpointVersion, xerr.ErrFormat)
	}
	d := &payloadReader{b: payload}
	n := int(d.uvarint("n"))
	cacheBlocks := int(d.uvarint("cacheBlocks"))
	sparse := d.byte("backend") == 1
	if d.err == nil {
		if err := ValidateGeometry(n, cacheBlocks); err != nil {
			return nil, fmt.Errorf("profile: snapshot geometry: %w: %w", xerr.ErrFormat, err)
		}
		if !sparse && n > MaxFlatBits {
			return nil, fmt.Errorf("profile: snapshot claims a flat table at n=%d > MaxFlatBits: %w", n, xerr.ErrFormat)
		}
	}
	accesses := d.uvarint("accesses")
	compulsory := d.uvarint("compulsory")
	capacity := d.uvarint("capacity")
	candidates := d.uvarint("candidates")
	totalPairs := d.uvarint("totalPairs")
	stackLen := d.uvarint("stack length")
	if d.err != nil {
		return nil, d.err
	}
	if compulsory+capacity+candidates != accesses {
		return nil, fmt.Errorf("profile: snapshot counters disagree (%d+%d+%d != %d accesses): %w",
			compulsory, capacity, candidates, accesses, xerr.ErrFormat)
	}
	if stackLen != compulsory {
		return nil, fmt.Errorf("profile: snapshot stack holds %d blocks, compulsory counter says %d: %w",
			stackLen, compulsory, xerr.ErrFormat)
	}
	if stackLen > accesses || uint64(len(payload)) < stackLen {
		return nil, fmt.Errorf("profile: snapshot stack length %d implausible: %w", stackLen, xerr.ErrFormat)
	}
	mask := uint64(gf2.Mask(n))
	stack := make([]uint64, stackLen)
	for i := range stack {
		stack[i] = d.uvarint("stack block")
		if d.err == nil && stack[i] > mask {
			return nil, fmt.Errorf("profile: snapshot stack block %#x exceeds %d bits: %w", stack[i], n, xerr.ErrFormat)
		}
	}
	supportLen := d.uvarint("support length")
	if d.err != nil {
		return nil, d.err
	}
	if uint64(len(payload)) < supportLen {
		return nil, fmt.Errorf("profile: snapshot support length %d implausible: %w", supportLen, xerr.ErrFormat)
	}
	bd := newBuilder(n, cacheBlocks, sparse)
	p := bd.p
	var vec, sum uint64
	for i := uint64(0); i < supportLen; i++ {
		dv := d.uvarint("vector delta")
		count := d.uvarint("vector count")
		if d.err != nil {
			return nil, d.err
		}
		if i > 0 && dv == 0 {
			return nil, fmt.Errorf("profile: snapshot histogram vectors not strictly ascending: %w", xerr.ErrFormat)
		}
		vec += dv
		if vec > mask {
			return nil, fmt.Errorf("profile: snapshot histogram vector %#x exceeds %d bits: %w", vec, n, xerr.ErrFormat)
		}
		if count == 0 {
			return nil, fmt.Errorf("profile: snapshot histogram carries a zero count: %w", xerr.ErrFormat)
		}
		if p.Table != nil {
			p.Table[vec] = count
		} else {
			p.Sparse[vec] = count
		}
		sum += count
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.rem() != 0 {
		return nil, fmt.Errorf("profile: %d trailing bytes after snapshot payload: %w", d.rem(), xerr.ErrFormat)
	}
	if sum != totalPairs {
		return nil, fmt.Errorf("profile: snapshot histogram sums to %d pairs, counter says %d: %w",
			sum, totalPairs, xerr.ErrFormat)
	}
	st, err := lru.NewStackFrom(stack)
	if err != nil {
		return nil, fmt.Errorf("profile: snapshot stack: %w: %w", xerr.ErrFormat, err)
	}
	p.Accesses = accesses
	p.Compulsory = compulsory
	p.Capacity = capacity
	p.Candidates = candidates
	p.TotalPairs = totalPairs
	bd.stack = st
	bd.resetWindow(stack)
	return bd, nil
}

// payloadReader decodes snapshot payload primitives, latching the
// first failure as a wrapped xerr.ErrFormat.
type payloadReader struct {
	b   []byte
	err error
}

func (d *payloadReader) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.err = fmt.Errorf("profile: snapshot %s: truncated or overlong varint: %w", what, xerr.ErrFormat)
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *payloadReader) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = fmt.Errorf("profile: snapshot %s: truncated: %w", what, xerr.ErrFormat)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *payloadReader) rem() int { return len(d.b) }

// CheckpointFile writes the builder's snapshot to path atomically
// (temp file + rename): a crash mid-write leaves the previous
// snapshot, never a torn file.
func CheckpointFile(path string, bd *Builder) error {
	return ckpt.WriteFileAtomic(path, bd.Checkpoint)
}

// RestoreFile loads a snapshot written by CheckpointFile. A missing
// file surfaces as the usual fs.ErrNotExist so callers can treat
// "no checkpoint yet" as a cold start.
func RestoreFile(path string) (*Builder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(f)
}
