package serve

// Service-state checkpointing: the whole serving loop — every shard's
// windowed histograms plus the published epoch — persists as one
// atomic file, so a killed server restarts exactly where it stopped:
// same epoch (sequence, matrix, estimates) and same profiles, proven
// by the kill/restart differential in serve_test.go.
//
// Layout, version 2: a ckpt envelope (magic "XSV1", CRC-32C) holding
// only the header, followed by the per-shard blobs appended raw:
//
//	envelope payload:
//	  uvarint n, cacheBlocks, m
//	  8 bytes  decay (IEEE-754 bits, little-endian)
//	  uvarint shards, rotations
//	  epoch:   uvarint seq, window, estimated, prevEstimated,
//	           baseline; 1 flags byte (bit 0 changed, bit 1 degraded);
//	           m × uvarint matrix columns
//	  shards × uvarint blob length
//	after the envelope:
//	  shards × raw profile.Windowed snapshot ("XWP1", self-CRC'd)
//
// Version 1 put the blobs inside the envelope, so its single CRC made
// a one-bit flip in one shard's histogram indistinguishable from a
// destroyed file. In version 2 each shard blob carries its own CRC and
// the (CRC-protected) header carries the framing, so damage localizes:
// a corrupt or truncated blob fails only its shard, and restore can
// heal — resume the healthy shards, cold-start the damaged ones — or
// refuse wholesale under Options.Strict. Damage to the envelope itself
// (header, epoch, framing) still fails the whole restore: there is no
// trustworthy frame to heal within.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"xoridx/internal/ckpt"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

const (
	serviceMagic   = "XSV1"
	serviceVersion = 2

	epochFlagChanged  = 1 << 0
	epochFlagDegraded = 1 << 1
)

// serviceState is a decoded checkpoint, ready to seed a new Server.
type serviceState struct {
	shards    []*profile.Windowed
	epoch     *Epoch
	rotations uint64
	damage    []error // per-shard blob failures healed by cold-starting (non-Strict only)
}

// SaveCheckpoint snapshots the full service state to CheckpointPath
// atomically (temp file + rename). Safe to call concurrently — writes
// serialize — and at any moment: shard snapshots enqueue behind any
// in-flight ingest, so each captures a consistent access boundary. A
// quarantined (or mid-restart) shard cannot answer; its last recovery
// snapshot stands in, or an empty window when it never produced one —
// the checkpoint stays whole so every healthy shard's state persists.
func (s *Server) SaveCheckpoint() error {
	if s.opt.CheckpointPath == "" {
		return fmt.Errorf("serve: no CheckpointPath configured: %w", xerr.ErrInvalidOptions)
	}
	blobs, err := s.collectShardSnapshots()
	if err != nil {
		return err
	}
	ep := s.cur.Load()
	rotations := s.rotations.Load()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	err = ckpt.WriteFileAtomic(s.opt.CheckpointPath, func(w io.Writer) error {
		if err := ckpt.Write(w, serviceMagic, serviceVersion, func(b *bytes.Buffer) error {
			var buf [binary.MaxVarintLen64]byte
			put := func(v uint64) { b.Write(buf[:binary.PutUvarint(buf[:], v)]) }
			put(uint64(s.n))
			put(uint64(s.cfg.CacheBytes / s.cfg.BlockBytes))
			put(uint64(s.m))
			var dec [8]byte
			binary.LittleEndian.PutUint64(dec[:], math.Float64bits(s.opt.Decay))
			b.Write(dec[:])
			put(uint64(len(s.shards)))
			put(rotations)
			put(ep.Seq)
			put(ep.Window)
			put(ep.Estimated)
			put(ep.PrevEstimated)
			put(ep.Baseline)
			var flags byte
			if ep.Changed {
				flags |= epochFlagChanged
			}
			if ep.Degraded {
				flags |= epochFlagDegraded
			}
			b.WriteByte(flags)
			h := ep.Func.Matrix()
			for _, col := range h.Cols {
				put(uint64(col))
			}
			for _, blob := range blobs {
				put(uint64(len(blob)))
			}
			return nil
		}); err != nil {
			return err
		}
		for _, blob := range blobs {
			if _, err := w.Write(blob); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		s.checkpoints.Add(1)
	}
	return err
}

// collectShardSnapshots asks every shard goroutine to serialize its
// Windowed, pipelined like mergeShards: all requests enqueue before
// any reply is awaited. Shards that cannot answer — quarantined up
// front, quarantined by a race (the drainer replies ErrQuarantined),
// or lost to a panic mid-request (the supervisor replies ErrPanic) —
// fall back to their last recovery snapshot.
func (s *Server) collectShardSnapshots() ([][]byte, error) {
	replies := make([]chan snapReply, len(s.shards))
	for i, sh := range s.shards {
		if sh.quarantined.Load() {
			continue
		}
		rc := make(chan snapReply, 1)
		replies[i] = rc
		select {
		case sh.ch <- shardCmd{snap: rc}:
		case <-s.ctx.Done():
			return nil, xerr.Canceled(s.ctx)
		}
	}
	blobs := make([][]byte, len(s.shards))
	for i, rc := range replies {
		if rc == nil {
			b, err := s.fallbackShardBlob(s.shards[i])
			if err != nil {
				return nil, err
			}
			blobs[i] = b
			continue
		}
		select {
		case rep := <-rc:
			if rep.err != nil {
				if errors.Is(rep.err, ErrQuarantined) || errors.Is(rep.err, xerr.ErrPanic) {
					b, err := s.fallbackShardBlob(s.shards[i])
					if err != nil {
						return nil, err
					}
					blobs[i] = b
					continue
				}
				return nil, rep.err
			}
			blobs[i] = rep.data
		case <-s.ctx.Done():
			return nil, xerr.Canceled(s.ctx)
		}
	}
	return blobs, nil
}

// fallbackShardBlob stands in for a shard that cannot serialize
// itself: its last recovery snapshot when one exists, an empty window
// otherwise.
func (s *Server) fallbackShardBlob(sh *shard) ([]byte, error) {
	if snap := sh.snap.Load(); snap != nil {
		return snap.data, nil
	}
	wb, err := s.newWindowed()
	if err != nil {
		return nil, err
	}
	var b writerBuffer
	if err := wb.Checkpoint(&b); err != nil {
		return nil, err
	}
	return b.data, nil
}

// loadServiceState restores a checkpoint file. See readServiceState.
func loadServiceState(path string, n, cacheBlocks, m int, decay float64, sample profile.SampleOptions, shards int, strict bool) (*serviceState, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil // cold start
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readServiceState(f, n, cacheBlocks, m, decay, sample, shards, strict)
}

// readServiceState decodes a checkpoint stream and validates it
// against the server's configuration: wrong geometry, decay or shard
// count is a wrapped xerr.ErrProfileMismatch (the operator changed the
// config under an old checkpoint), structural damage a wrapped
// xerr.ErrFormat. A damaged per-shard blob — bad CRC, bad decode,
// geometry/decay disagreeing with the header, or a truncated tail —
// fails only that shard: strict refuses the whole restore with an
// error naming it; otherwise the shard cold-starts and the failure is
// recorded in serviceState.damage.
func readServiceState(r io.Reader, n, cacheBlocks, m int, decay float64, sample profile.SampleOptions, shards int, strict bool) (*serviceState, error) {
	version, payload, err := ckpt.Read(r, serviceMagic)
	if err != nil {
		return nil, err
	}
	if version != serviceVersion {
		return nil, fmt.Errorf("serve: checkpoint version %d, this build reads %d: %w",
			version, serviceVersion, xerr.ErrFormat)
	}
	d := ckpt.NewDecoder(payload, "serve: checkpoint")
	ckN := int(d.Uvarint("n"))
	ckBlocks := int(d.Uvarint("cacheBlocks"))
	ckM := int(d.Uvarint("m"))
	ckDecay := d.Float64("decay")
	ckShards := int(d.Uvarint("shards"))
	rotations := d.Uvarint("rotations")
	if d.Err() != nil {
		return nil, d.Err()
	}
	if ckN != n || ckBlocks != cacheBlocks || ckM != m {
		return nil, fmt.Errorf("serve: checkpoint geometry (n=%d, %d blocks, m=%d) does not match config (n=%d, %d blocks, m=%d): %w",
			ckN, ckBlocks, ckM, n, cacheBlocks, m, xerr.ErrProfileMismatch)
	}
	if math.Float64bits(ckDecay) != math.Float64bits(decay) {
		return nil, fmt.Errorf("serve: checkpoint decay %v does not match config %v: %w",
			ckDecay, decay, xerr.ErrProfileMismatch)
	}
	if ckShards != shards {
		return nil, fmt.Errorf("serve: checkpoint has %d shards, config wants %d: %w",
			ckShards, shards, xerr.ErrProfileMismatch)
	}
	ep := &Epoch{
		Seq:           d.Uvarint("epoch seq"),
		Window:        d.Uvarint("epoch window"),
		Estimated:     d.Uvarint("epoch estimated"),
		PrevEstimated: d.Uvarint("epoch prevEstimated"),
		Baseline:      d.Uvarint("epoch baseline"),
	}
	flags := d.Byte("epoch flags")
	ep.Changed = flags&epochFlagChanged != 0
	ep.Degraded = flags&epochFlagDegraded != 0
	if d.Err() == nil && flags&^byte(epochFlagChanged|epochFlagDegraded) != 0 {
		return nil, fmt.Errorf("serve: checkpoint epoch flags %#x unknown: %w", flags, xerr.ErrFormat)
	}
	h := gf2.NewMatrix(n, m)
	mask := gf2.Mask(n)
	for c := 0; c < m; c++ {
		col := gf2.Vec(d.Uvarint("matrix column"))
		if d.Err() == nil && col&^mask != 0 {
			return nil, fmt.Errorf("serve: checkpoint matrix column %#x exceeds %d bits: %w", uint64(col), n, xerr.ErrFormat)
		}
		h.Cols[c] = col
	}
	blobLens := make([]uint64, ckShards)
	var totalBlob uint64
	for i := range blobLens {
		blobLens[i] = d.Uvarint("shard blob length")
		if blobLens[i] > ckpt.MaxPayload {
			return nil, fmt.Errorf("serve: checkpoint shard %d blob length %d exceeds limit: %w",
				i, blobLens[i], xerr.ErrFormat)
		}
		totalBlob += blobLens[i]
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Rem() != 0 {
		return nil, fmt.Errorf("serve: %d trailing bytes after checkpoint header: %w", d.Rem(), xerr.ErrFormat)
	}
	if ep.Seq == 0 {
		return nil, fmt.Errorf("serve: checkpoint epoch sequence 0: %w", xerr.ErrFormat)
	}
	f2, err := hash.NewXOR(h)
	if err != nil {
		// Rank-deficient or misshapen matrix: NewXOR validates it.
		return nil, fmt.Errorf("serve: checkpoint matrix: %w: %w", xerr.ErrFormat, err)
	}
	ep.Func = f2
	st := &serviceState{epoch: ep, rotations: rotations}
	st.shards = make([]*profile.Windowed, ckShards)

	// The shard blobs follow the envelope raw; the envelope's CRC has
	// already vouched for the framing, so each blob decodes (and
	// fails) independently. truncated poisons every later blob: once
	// the stream runs short there is no next-blob boundary to trust.
	truncated := false
	cold := func(i int, cause error) error {
		if strict {
			return fmt.Errorf("serve: checkpoint shard %d damaged (strict resume refuses to heal): %w", i, cause)
		}
		st.damage = append(st.damage, fmt.Errorf("serve: checkpoint shard %d damaged, cold-starting it: %w", i, cause))
		wb, err := profile.NewWindowed(n, cacheBlocks, decay, sample)
		if err != nil {
			return err
		}
		st.shards[i] = wb
		return nil
	}
	for i := range st.shards {
		if truncated {
			if err := cold(i, fmt.Errorf("blob lost to earlier truncation: %w", xerr.ErrFormat)); err != nil {
				return nil, err
			}
			continue
		}
		blob, err := ckpt.ReadN(r, blobLens[i])
		if err != nil {
			truncated = true
			if err := cold(i, fmt.Errorf("blob truncated: %v: %w", err, xerr.ErrFormat)); err != nil {
				return nil, err
			}
			continue
		}
		wb, err := profile.RestoreWindowed(bytes.NewReader(blob))
		if err != nil {
			if err := cold(i, err); err != nil {
				return nil, err
			}
			continue
		}
		if wb.N() != n || wb.CacheBlocks() != cacheBlocks {
			if err := cold(i, fmt.Errorf("blob geometry disagrees with header: %w", xerr.ErrProfileMismatch)); err != nil {
				return nil, err
			}
			continue
		}
		if math.Float64bits(wb.Decay()) != math.Float64bits(decay) {
			if err := cold(i, fmt.Errorf("blob decay disagrees with header: %w", xerr.ErrProfileMismatch)); err != nil {
				return nil, err
			}
			continue
		}
		if !wb.Sampling().Same(sample) {
			// A shard profiled under a different subsample rate cannot
			// merge with the others; heal it cold rather than poisoning
			// every later rotation.
			if err := cold(i, fmt.Errorf("blob sampling disagrees with config: %w", xerr.ErrProfileMismatch)); err != nil {
				return nil, err
			}
			continue
		}
		st.shards[i] = wb
	}
	if !truncated {
		var tail [1]byte
		if k, _ := io.ReadFull(r, tail[:]); k != 0 {
			return nil, fmt.Errorf("serve: trailing bytes after checkpoint shard blobs: %w", xerr.ErrFormat)
		}
	}
	return st, nil
}
