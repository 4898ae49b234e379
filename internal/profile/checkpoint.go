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
		b.WriteByte(backendByte(p.N))
		put(p.Accesses)
		put(p.Compulsory)
		put(p.Capacity)
		put(p.Candidates)
		put(p.TotalPairs)
		putStack(put, bd.stack.Blocks())
		putSupport(put, p)
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
	d := ckpt.NewDecoder(payload, "profile: snapshot")
	n := int(d.Uvarint("n"))
	cacheBlocks := int(d.Uvarint("cacheBlocks"))
	backend := d.Byte("backend")
	if d.Err() == nil {
		if err := ValidateGeometry(n, cacheBlocks); err != nil {
			return nil, fmt.Errorf("profile: snapshot geometry: %w: %w", xerr.ErrFormat, err)
		}
		if err := checkBackendByte(backend, n, "snapshot"); err != nil {
			return nil, err
		}
	}
	accesses := d.Uvarint("accesses")
	compulsory := d.Uvarint("compulsory")
	capacity := d.Uvarint("capacity")
	candidates := d.Uvarint("candidates")
	totalPairs := d.Uvarint("totalPairs")
	if d.Err() != nil {
		return nil, d.Err()
	}
	if compulsory+capacity+candidates != accesses {
		return nil, fmt.Errorf("profile: snapshot counters disagree (%d+%d+%d != %d accesses): %w",
			compulsory, capacity, candidates, accesses, xerr.ErrFormat)
	}
	stack, err := readStack(d, accesses, n, "snapshot stack")
	if err != nil {
		return nil, err
	}
	if uint64(len(stack)) != compulsory {
		return nil, fmt.Errorf("profile: snapshot stack holds %d blocks, compulsory counter says %d: %w",
			len(stack), compulsory, xerr.ErrFormat)
	}
	bd := newBuilder(n, cacheBlocks, nil)
	p := bd.p
	p.Accesses = accesses
	p.Compulsory = compulsory
	p.Capacity = capacity
	p.Candidates = candidates
	p.TotalPairs = totalPairs
	if err := readSupport(d, p, "snapshot histogram"); err != nil {
		return nil, err
	}
	if d.Rem() != 0 {
		return nil, fmt.Errorf("profile: %d trailing bytes after snapshot payload: %w", d.Rem(), xerr.ErrFormat)
	}
	if err := bd.restoreStack(stack, "snapshot stack"); err != nil {
		return nil, err
	}
	return bd, nil
}

// backendByte is the snapshot byte naming the exact histogram store at
// width n: 1 for the sparse map, 0 for the flat table.
func backendByte(n int) byte {
	if n > MaxFlatBits {
		return 1
	}
	return 0
}

// checkBackendByte rejects a snapshot backend byte other than the one
// the width selects: the store is a function of n alone, so any other
// byte is corruption. what names the snapshot in the error.
func checkBackendByte(b byte, n int, what string) error {
	if b != backendByte(n) {
		return fmt.Errorf("profile: %s backend byte %d, but n=%d selects %d: %w",
			what, b, n, backendByte(n), xerr.ErrFormat)
	}
	return nil
}

// putStack writes an LRU stack listing: its length, then each block
// from top to bottom (most recent first, as lru.Stack.Blocks sorts the
// stamps).
func putStack(put func(uint64), stack []uint64) {
	put(uint64(len(stack)))
	for _, blk := range stack {
		put(blk)
	}
}

// readStack decodes a listing written by putStack. The listing may
// hold at most limit blocks of n bits each; what names it in errors.
func readStack(d *ckpt.Decoder, limit uint64, n int, what string) ([]uint64, error) {
	stackLen := d.Uvarint("stack length")
	if d.Err() != nil {
		return nil, d.Err()
	}
	if stackLen > limit || uint64(d.Rem()) < stackLen {
		return nil, fmt.Errorf("profile: %s length %d implausible: %w", what, stackLen, xerr.ErrFormat)
	}
	mask := uint64(gf2.Mask(n))
	stack := make([]uint64, stackLen)
	for i := range stack {
		stack[i] = d.Uvarint("stack block")
		if d.Err() == nil && stack[i] > mask {
			return nil, fmt.Errorf("profile: %s block %#x exceeds %d bits: %w", what, stack[i], n, xerr.ErrFormat)
		}
	}
	return stack, d.Err()
}

// restoreStack replays a listing decoded by readStack into the
// builder's empty LRU gate; a duplicate block is corruption. what names
// the listing in errors.
func (bd *Builder) restoreStack(topToBottom []uint64, what string) error {
	if err := bd.stack.Restore(topToBottom); err != nil {
		return fmt.Errorf("profile: %s: %w: %w", what, xerr.ErrFormat, err)
	}
	return nil
}

// putSupport writes p's histogram support: its length, then each
// vector as the delta from the previous one, and its count. Vectors are
// strictly ascending, so delta coding keeps dense histograms compact.
func putSupport(put func(uint64), p *Profile) {
	support := p.Support()
	put(uint64(len(support)))
	prev := uint64(0)
	for _, vc := range support {
		put(uint64(vc.Vec) - prev)
		put(vc.Count)
		prev = uint64(vc.Vec)
	}
}

// readSupport decodes a support written by putSupport into p (allocated
// empty with the right backend, its TotalPairs already set). The
// vectors must ascend strictly within p.N bits, every count must be
// nonzero, and the counts must sum to p.TotalPairs. what names the
// histogram in errors.
func readSupport(d *ckpt.Decoder, p *Profile, what string) error {
	supportLen := d.Uvarint("support length")
	if d.Err() != nil {
		return d.Err()
	}
	if uint64(d.Rem()) < supportLen {
		return fmt.Errorf("profile: %s support length %d implausible: %w", what, supportLen, xerr.ErrFormat)
	}
	mask := uint64(gf2.Mask(p.N))
	var vec, sum uint64
	for i := uint64(0); i < supportLen; i++ {
		dv := d.Uvarint("vector delta")
		count := d.Uvarint("vector count")
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && dv == 0 {
			return fmt.Errorf("profile: %s vectors not strictly ascending: %w", what, xerr.ErrFormat)
		}
		vec += dv
		if vec > mask {
			return fmt.Errorf("profile: %s vector %#x exceeds %d bits: %w", what, vec, p.N, xerr.ErrFormat)
		}
		if count == 0 {
			return fmt.Errorf("profile: %s carries a zero count: %w", what, xerr.ErrFormat)
		}
		if p.Table != nil {
			p.Table[vec] = count
		} else {
			p.Sparse[vec] = count
		}
		sum += count
	}
	if sum != p.TotalPairs {
		return fmt.Errorf("profile: %s sums to %d pairs, counter says %d: %w",
			what, sum, p.TotalPairs, xerr.ErrFormat)
	}
	return nil
}

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
