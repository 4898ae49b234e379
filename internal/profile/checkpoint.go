package profile

// Checkpoint/resume for the profiling pass. One codec serialises a
// Builder — geometry, backend, sampling gate, counters, histogram
// support and LRU gate — and both snapshot formats are built on it:
// XPC1 is a Builder alone, XWP1 a Windowed's live-window Builder
// followed by its decay, rotations, stream total and decayed aggregate
// (window.go). Each sits inside the versioned, CRC-checked ckpt
// envelope, so a run killed at any checkpoint boundary resumes
// bit-identically to an uninterrupted one, sampled or exact (the
// differential tests in checkpoint_test.go prove it). The stream
// position is the Accesses counter: a resumed build skips that many
// accesses of its source and continues.
//
// The decoder never trusts the payload: readBuilder re-validates every
// invariant a Builder holds, and each format adds its rule for the gate
// listing, so a corrupted-but-CRC-colliding snapshot still fails with a
// wrapped xerr.ErrFormat instead of poisoning the profile (see
// FuzzCheckpointCodec).

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"xoridx/internal/ckpt"
	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

const (
	checkpointMagic   = "XPC1"
	checkpointVersion = 2
)

// Pos returns the number of accesses the builder has consumed — the
// stream position a resumed build must skip to.
func (bd *Builder) Pos() uint64 { return bd.p.Accesses }

// Checkpoint serialises the builder's full profiling state, its
// sampling gate included. The builder remains usable; snapshots may be
// taken at any access boundary. A sketch-backed builder cannot be
// checkpointed.
func (bd *Builder) Checkpoint(w io.Writer) error {
	if bd.done {
		return fmt.Errorf("profile: Checkpoint after Finish: %w", xerr.ErrInvalidOptions)
	}
	if bd.p.entryCap > 0 {
		return fmt.Errorf("profile: Checkpoint of a sketch-backed builder: %w", xerr.ErrInvalidOptions)
	}
	return ckpt.Write(w, checkpointMagic, checkpointVersion, func(b *bytes.Buffer) error {
		bd.encode(ckpt.Encoder{Buffer: b})
		return nil
	})
}

// Restore rebuilds a Builder from a Checkpoint snapshot. Corruption at
// any layer — envelope, counters, histogram, gate — returns a wrapped
// xerr.ErrFormat; a successful restore is bit-identical to the builder
// that was checkpointed. On top of readBuilder's checks, the gate must
// list exactly Compulsory blocks: a builder's gate holds every block
// it has seen, and each was seen first by a compulsory miss.
func Restore(r io.Reader) (*Builder, error) {
	d, err := openSnapshot(r, checkpointMagic, checkpointVersion, "snapshot")
	if err != nil {
		return nil, err
	}
	bd, err := readBuilder(d, "snapshot")
	if err != nil {
		return nil, err
	}
	if gate := uint64(bd.stack.Len()); gate != bd.p.Compulsory {
		return nil, fmt.Errorf("profile: snapshot stack holds %d blocks, compulsory counter says %d: %w",
			gate, bd.p.Compulsory, xerr.ErrFormat)
	}
	if d.Rem() != 0 {
		return nil, fmt.Errorf("profile: %d trailing bytes after snapshot payload: %w", d.Rem(), xerr.ErrFormat)
	}
	bd.base = bd.Stats()
	return bd, nil
}

// openSnapshot unwraps an envelope of the given magic, refusing every
// version but the one this build writes, and returns a decoder over its
// payload. what names the snapshot in errors.
func openSnapshot(r io.Reader, magic string, version uint64, what string) (*ckpt.Decoder, error) {
	v, payload, err := ckpt.Read(r, magic)
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("profile: %s version %d, this build reads %d: %w", what, v, version, xerr.ErrFormat)
	}
	return ckpt.NewDecoder(payload, "profile: "+what), nil
}

// encode writes the builder: geometry and backend byte, the sampling
// gate (K, seed and the candidate ordinal it has counted to, all zero
// when exact), the counters and histogram support (putBody), and the
// LRU gate from the most to the least recent block.
func (bd *Builder) encode(e ckpt.Encoder) {
	p := bd.p
	e.Put(uint64(p.N), uint64(p.CacheBlocks))
	e.WriteByte(backendByte(p.N))
	e.Put(bd.sampleK, p.SampleSeed, bd.sampleCount)
	putBody(e, p)
	gate := bd.stack.Blocks()
	e.Put(uint64(len(gate)))
	e.Put(gate...)
}

// readBuilder decodes a builder written by encode and checks every
// invariant it holds on its own:
//
//   - the geometry is valid and the backend byte is the one n selects;
//   - an exact builder carries no sampling state;
//   - Compulsory + Capacity + Candidates == Accesses;
//   - SampledCandidates <= Candidates, and a sampled gate has counted
//     at least Candidates candidates;
//   - the support (readBody) ascends strictly within Mask(n), with
//     nonzero counts summing to TotalPairs;
//   - the gate lists distinct blocks within Mask(n).
//
// The caller checks the gate's length, whose rule differs between a
// Builder and a Windowed, and that the payload ends. what names the
// snapshot in errors.
func readBuilder(d *ckpt.Decoder, what string) (*Builder, error) {
	n := int(d.Uvarint("n"))
	cacheBlocks := int(d.Uvarint("cacheBlocks"))
	backend := d.Byte("backend")
	sample := SampleOptions{K: d.Uvarint("sampleK"), Seed: d.Uvarint("sampleSeed")}
	ordinal := d.Uvarint("sampleCount")
	if d.Err() != nil {
		return nil, d.Err()
	}
	if err := ValidateGeometry(n, cacheBlocks); err != nil {
		return nil, fmt.Errorf("profile: %s geometry: %w: %w", what, xerr.ErrFormat, err)
	}
	if backend != backendByte(n) {
		return nil, fmt.Errorf("profile: %s backend byte %d, but n=%d selects %d: %w",
			what, backend, n, backendByte(n), xerr.ErrFormat)
	}
	if !sample.enabled() && (sample != SampleOptions{} || ordinal != 0) {
		return nil, fmt.Errorf("profile: %s sampling state %+v at ordinal %d without sampling: %w",
			what, sample, ordinal, xerr.ErrFormat)
	}
	// Every length is checked against the payload, and every invariant
	// held, before a flat builder's 2^n table and gate stamps are made.
	p := &Profile{N: n, CacheBlocks: cacheBlocks}
	support, err := readBody(d, p, what+" histogram")
	if err != nil {
		return nil, err
	}
	if p.Compulsory+p.Capacity+p.Candidates != p.Accesses {
		return nil, fmt.Errorf("profile: %s counters disagree (%d+%d+%d != %d accesses): %w",
			what, p.Compulsory, p.Capacity, p.Candidates, p.Accesses, xerr.ErrFormat)
	}
	if p.SampledCandidates > p.Candidates || sample.enabled() && ordinal < p.Candidates {
		return nil, fmt.Errorf("profile: %s sampled %d of %d candidates at gate ordinal %d: %w",
			what, p.SampledCandidates, p.Candidates, ordinal, xerr.ErrFormat)
	}
	gate, err := readGate(d, n, what+" stack")
	if err != nil {
		return nil, err
	}
	p.fill(support)
	bd := p.builder()
	bd.sampleCount = ordinal
	bd.setSampling(sample)
	if err := bd.stack.Restore(gate); err != nil {
		return nil, fmt.Errorf("profile: %s stack: %w: %w", what, xerr.ErrFormat, err)
	}
	return bd, nil
}

// backendByte is the snapshot byte naming the exact histogram store at
// width n: 1 for the sparse map, 0 for the flat table. The store is a
// function of n alone, so any other byte is corruption.
func backendByte(n int) byte {
	if n > MaxFlatBits {
		return 1
	}
	return 0
}

// readGate decodes a gate listing written by encode: its length, then
// blocks of n bits each. what names it in errors.
func readGate(d *ckpt.Decoder, n int, what string) ([]uint64, error) {
	size := d.Uvarint("stack length")
	if d.Err() != nil {
		return nil, d.Err()
	}
	if uint64(d.Rem()) < size {
		return nil, fmt.Errorf("profile: %s length %d implausible: %w", what, size, xerr.ErrFormat)
	}
	mask := uint64(gf2.Mask(n))
	gate := make([]uint64, size)
	for i := range gate {
		gate[i] = d.Uvarint("stack block")
		if d.Err() == nil && gate[i] > mask {
			return nil, fmt.Errorf("profile: %s block %#x exceeds %d bits: %w", what, gate[i], n, xerr.ErrFormat)
		}
	}
	return gate, d.Err()
}

// putBody writes one counter set and histogram: the counters, then the
// support's length and each vector as the delta from the previous one,
// with its count. Vectors are strictly ascending, so delta coding keeps
// dense histograms compact.
func putBody(e ckpt.Encoder, p *Profile) {
	e.Put(p.Accesses, p.Compulsory, p.Capacity, p.Candidates, p.TotalPairs, p.SampledCandidates)
	support := p.Support()
	e.Put(uint64(len(support)))
	prev := uint64(0)
	for _, vc := range support {
		e.Put(uint64(vc.Vec)-prev, vc.Count)
		prev = uint64(vc.Vec)
	}
}

// readBody decodes a body written by putBody: the counters into p and
// the support, returned in ascending order for p.fill. The vectors must
// ascend strictly within p.N bits, every count must be nonzero, and the
// counts must sum to TotalPairs. what names the histogram in errors.
func readBody(d *ckpt.Decoder, p *Profile, what string) ([]VectorCount, error) {
	p.Accesses = d.Uvarint("accesses")
	p.Compulsory = d.Uvarint("compulsory")
	p.Capacity = d.Uvarint("capacity")
	p.Candidates = d.Uvarint("candidates")
	p.TotalPairs = d.Uvarint("totalPairs")
	p.SampledCandidates = d.Uvarint("sampledCandidates")
	size := d.Uvarint("support length")
	if d.Err() != nil {
		return nil, d.Err()
	}
	// Each entry takes at least two bytes.
	if uint64(d.Rem())/2 < size {
		return nil, fmt.Errorf("profile: %s support length %d implausible: %w", what, size, xerr.ErrFormat)
	}
	mask := uint64(gf2.Mask(p.N))
	support := make([]VectorCount, 0, size)
	var vec, sum uint64
	for i := uint64(0); i < size; i++ {
		dv := d.Uvarint("vector delta")
		count := d.Uvarint("vector count")
		if d.Err() != nil {
			return nil, d.Err()
		}
		if i > 0 && dv == 0 {
			return nil, fmt.Errorf("profile: %s vectors not strictly ascending: %w", what, xerr.ErrFormat)
		}
		vec += dv
		if vec > mask {
			return nil, fmt.Errorf("profile: %s vector %#x exceeds %d bits: %w", what, vec, p.N, xerr.ErrFormat)
		}
		if count == 0 {
			return nil, fmt.Errorf("profile: %s carries a zero count: %w", what, xerr.ErrFormat)
		}
		support = append(support, VectorCount{Vec: gf2.Vec(vec), Count: count})
		sum += count
	}
	if sum != p.TotalPairs {
		return nil, fmt.Errorf("profile: %s sums to %d pairs, counter says %d: %w",
			what, sum, p.TotalPairs, xerr.ErrFormat)
	}
	return support, nil
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
