package profile

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xoridx/internal/ckpt"
	"xoridx/internal/faultio"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// snapshotBytes checkpoints a builder into memory.
func snapshotBytes(t *testing.T, bd *Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bd.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Golden snapshots of TestSnapshotGoldenBytes, recorded before XPC1 and
// XWP1 shared their stack and support codecs.
const (
	xpc1 = "58504331011a060400280400243d041b12002406090a090a090a090b120a090a5fc9b8ee"
	xwp1 = "58575031023c06040080808080808080f03f013c020138280400241e12060905090509060905120409" +
		"0514000014120a06090309030902090312040903041200241b596d6a17"
)

// TestSnapshotGoldenBytes pins both snapshot byte formats — a small
// flat XPC1 builder and a small sampled XWP1 windowed profile, both
// with a nonempty support and stack — and checks that restoring the
// pinned bytes and checkpointing again reproduces them.
func TestSnapshotGoldenBytes(t *testing.T) {
	blocks := make([]uint64, 60)
	for i := range blocks {
		blocks[i] = uint64((i*i*3+i)%7*9) & 63
	}

	bd := NewBuilder(6, 4)
	for _, b := range blocks[:40] {
		bd.Add(b)
	}
	if got := hex.EncodeToString(snapshotBytes(t, bd)); got != xpc1 {
		t.Fatalf("XPC1 snapshot\n%s\nwant\n%s", got, xpc1)
	}
	raw, _ := hex.DecodeString(xpc1)
	back, err := Restore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(snapshotBytes(t, back)); got != xpc1 {
		t.Fatalf("XPC1 restore+checkpoint\n%s\nwant\n%s", got, xpc1)
	}

	w, err := NewWindowed(6, 4, 0.5, SampleOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[:40] {
		w.Add(b)
	}
	w.Rotate()
	for _, b := range blocks[40:] {
		w.Add(b)
	}
	windowedBytes := func(w *Windowed) string {
		var buf bytes.Buffer
		if err := w.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(buf.Bytes())
	}
	if got := windowedBytes(w); got != xwp1 {
		t.Fatalf("XWP1 snapshot\n%s\nwant\n%s", got, xwp1)
	}
	raw, _ = hex.DecodeString(xwp1)
	wback, err := RestoreWindowed(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := windowedBytes(wback); got != xwp1 {
		t.Fatalf("XWP1 restore+checkpoint\n%s\nwant\n%s", got, xwp1)
	}
}

// TestSnapshotErrorsNameTheirFormat: XPC1 and XWP1 share the stack and
// support decoders, but a corrupt listing must still say which snapshot
// it came from. Each payload byte of the golden snapshots in turn
// becomes 0x7f, a one-byte varint past their 6-bit mask, and the
// payload is resealed so the corruption reaches the decoders.
func TestSnapshotErrorsNameTheirFormat(t *testing.T) {
	cases := []struct {
		magic, golden, prefix string
		restore               func([]byte) error
	}{
		{checkpointMagic, xpc1, "profile: snapshot ", func(b []byte) error {
			_, err := Restore(bytes.NewReader(b))
			return err
		}},
		{windowMagic, xwp1, "profile: windowed snapshot ", func(b []byte) error {
			_, err := RestoreWindowed(bytes.NewReader(b))
			return err
		}},
	}
	for _, c := range cases {
		raw, _ := hex.DecodeString(c.golden)
		version, payload, err := ckpt.Read(bytes.NewReader(raw), c.magic)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i := range payload {
			mut := bytes.Clone(payload)
			mut[i] = 0x7f
			var buf bytes.Buffer
			if err := ckpt.Write(&buf, c.magic, version, func(w *bytes.Buffer) error {
				_, err := w.Write(mut)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			err := c.restore(buf.Bytes())
			if err == nil || !strings.Contains(err.Error(), "exceeds 6 bits") {
				continue
			}
			if !strings.HasPrefix(err.Error(), c.prefix) {
				t.Errorf("%s byte %d: error %q does not start with %q", c.magic, i, err, c.prefix)
			}
			for _, part := range []string{"stack block", "histogram vector"} {
				if strings.Contains(err.Error(), part) {
					seen[part] = true
				}
			}
		}
		if !seen["stack block"] || !seen["histogram vector"] {
			t.Errorf("%s: corruptions reached stack block %v, histogram vector %v; want both",
				c.magic, seen["stack block"], seen["histogram vector"])
		}
	}
}

// TestCheckpointRestoreMidBuild: a builder checkpointed mid-trace and
// restored must complete to a profile bit-identical to one that was
// never interrupted — same histogram, same counters, same future
// classifications.
func TestCheckpointRestoreMidBuild(t *testing.T) {
	blocks := syntheticBlocks(30000)
	for _, cut := range []int{0, 1, 9999, 29999} {
		ref := NewBuilder(12, 64)
		bd := NewBuilder(12, 64)
		for _, b := range blocks[:cut] {
			ref.Add(b)
			bd.Add(b)
		}
		restored, err := Restore(bytes.NewReader(snapshotBytes(t, bd)))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if restored.Pos() != uint64(cut) {
			t.Fatalf("cut=%d: restored Pos()=%d", cut, restored.Pos())
		}
		for _, b := range blocks[cut:] {
			ref.Add(b)
			restored.Add(b)
		}
		if d := diffProfiles(restored.Finish(), ref.Finish()); d != "" {
			t.Fatalf("cut=%d: resumed profile differs: %s", cut, d)
		}
	}
}

func TestCheckpointSparseBackendRoundTrip(t *testing.T) {
	blocks := syntheticBlocks(5000)
	bd := NewBuilder(32, 64)
	for _, b := range blocks {
		bd.Add(b)
	}
	restored, err := Restore(bytes.NewReader(snapshotBytes(t, bd)))
	if err != nil {
		t.Fatal(err)
	}
	got, want := restored.Finish(), bd.Finish()
	if got.Sparse == nil || got.Table != nil {
		t.Fatal("sparse backend not preserved")
	}
	if len(got.Sparse) != len(want.Sparse) {
		t.Fatalf("support size %d, want %d", len(got.Sparse), len(want.Sparse))
	}
	for v, c := range want.Sparse {
		if got.Sparse[v] != c {
			t.Fatalf("entry %#x: %d, want %d", v, got.Sparse[v], c)
		}
	}
}

func TestCheckpointAfterFinishRejected(t *testing.T) {
	bd := NewBuilder(8, 16)
	bd.Finish()
	var buf bytes.Buffer
	if err := bd.Checkpoint(&buf); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("Checkpoint after Finish: err = %v, want wrapped ErrInvalidOptions", err)
	}
}

// TestRestoreRejectsEveryBitFlip: a snapshot with any single bit
// flipped must either fail with a wrapped xerr.ErrFormat or (if the
// CRC happens to still match — it never does for single flips) restore
// to a self-consistent builder. It must never panic.
func TestRestoreRejectsEveryBitFlip(t *testing.T) {
	bd := NewBuilder(10, 16)
	for _, b := range syntheticBlocks(2000) {
		bd.Add(b)
	}
	data := snapshotBytes(t, bd)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << uint(bit)
			if _, err := Restore(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flip byte %d bit %d: corrupted snapshot restored", i, bit)
			} else if !errors.Is(err, xerr.ErrFormat) {
				t.Fatalf("flip byte %d bit %d: error %v does not wrap xerr.ErrFormat", i, bit, err)
			}
		}
	}
}

// TestRestoreRejectsUnknownVersion: an envelope whose version this
// build does not write is a format error, however well its payload
// would decode. The XWP1 version-1 row is a complete exact v1 payload
// (empty windows, no sampling fields), which an older build restored.
func TestRestoreRejectsUnknownVersion(t *testing.T) {
	put := func(b *bytes.Buffer, vs ...uint64) {
		for _, v := range vs {
			b.Write(binary.AppendUvarint(nil, v))
		}
	}
	v1 := func(b *bytes.Buffer) error {
		put(b, 6, 4)
		b.WriteByte(0) // flat backend
		put(b, math.Float64bits(0.5), 0, 0)
		for range 2 { // aggregate and window: five counters and an empty support
			put(b, 0, 0, 0, 0, 0, 0)
		}
		put(b, 0) // empty stack
		return nil
	}
	empty := func(*bytes.Buffer) error { return nil }
	cases := []struct {
		name    string
		magic   string
		version uint64
		payload func(*bytes.Buffer) error
		restore func(io.Reader) error
	}{
		{"XPC1 future version", checkpointMagic, checkpointVersion + 1, empty, func(r io.Reader) error {
			_, err := Restore(r)
			return err
		}},
		{"XWP1 version 1", windowMagic, 1, v1, func(r io.Reader) error {
			_, err := RestoreWindowed(r)
			return err
		}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, c.magic, c.version, c.payload); err != nil {
			t.Fatal(err)
		}
		if err := c.restore(&buf); !errors.Is(err, xerr.ErrFormat) || !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s: err = %v, want a wrapped ErrFormat naming the version", c.name, err)
		}
	}
}

// TestRestoreRejectsOffWidthBackend takes flat n <= MaxFlatBits
// snapshots, sets their backend byte to 1 — the sparse map's — and
// re-wraps them under a valid CRC. The width alone selects the store,
// so both restores must refuse the byte as a format error.
func TestRestoreRejectsOffWidthBackend(t *testing.T) {
	bd := NewBuilder(12, 16)
	w, err := NewWindowed(12, 16, 0.5, SampleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range syntheticBlocks(2000) {
		bd.Add(b)
		w.Add(b)
	}
	var wb bytes.Buffer
	if err := w.Checkpoint(&wb); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		magic   string
		blob    []byte
		restore func(io.Reader) error
	}{
		{"XPC1", checkpointMagic, snapshotBytes(t, bd), func(r io.Reader) error {
			_, err := Restore(r)
			return err
		}},
		{"XWP1", windowMagic, wb.Bytes(), func(r io.Reader) error {
			_, err := RestoreWindowed(r)
			return err
		}},
	}
	for _, c := range cases {
		version, payload, err := ckpt.Read(bytes.NewReader(c.blob), c.magic)
		if err != nil {
			t.Fatal(err)
		}
		d := ckpt.NewDecoder(payload, c.name)
		d.Uvarint("n")
		d.Uvarint("cacheBlocks")
		off := len(payload) - d.Rem()
		if d.Err() != nil || payload[off] != 0 {
			t.Fatalf("%s: no flat backend byte after the geometry (%v)", c.name, d.Err())
		}
		payload[off] = 1
		var forged bytes.Buffer
		if err := ckpt.Write(&forged, c.magic, version, func(b *bytes.Buffer) error {
			b.Write(payload)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.restore(&forged); !errors.Is(err, xerr.ErrFormat) {
			t.Errorf("%s with a sparse backend byte at n=12: err = %v, want wrapped ErrFormat", c.name, err)
		}
	}
}

// TestRestoreRejectsConsistentLies: payloads that decode cleanly but
// violate the profiling invariants (counter arithmetic, histogram sum,
// stack/compulsory equality) must be rejected even though the CRC is
// valid — this is what protects against a logically corrupt snapshot,
// not just a bit-rotted one.
func TestRestoreRejectsConsistentLies(t *testing.T) {
	write := func(fields []uint64, tail func(b *bytes.Buffer)) []byte {
		var buf bytes.Buffer
		err := ckpt.Write(&buf, checkpointMagic, checkpointVersion, func(b *bytes.Buffer) error {
			var tmp [16]byte
			for i, v := range fields {
				if i == 2 { // backend flag position
					b.WriteByte(byte(v))
					continue
				}
				k := 0
				for x := v; ; {
					if x < 0x80 {
						tmp[k] = byte(x)
						k++
						break
					}
					tmp[k] = byte(x) | 0x80
					k++
					x >>= 7
				}
				b.Write(tmp[:k])
			}
			if tail != nil {
				tail(b)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name   string
		fields []uint64 // n, cacheBlocks, backend, accesses, compulsory, capacity, candidates, totalPairs, stackLen
	}{
		{"counters disagree", []uint64{8, 16, 0, 10, 1, 1, 1, 0, 1}},
		{"stack/compulsory mismatch", []uint64{8, 16, 0, 2, 2, 0, 0, 0, 1}},
		{"flat backend too wide", []uint64{40, 16, 0, 0, 0, 0, 0, 0, 0}},
		{"zero geometry", []uint64{0, 16, 0, 0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		data := write(tc.fields, func(b *bytes.Buffer) {
			// Enough stack blocks + an empty support to satisfy the
			// declared lengths where they are plausible.
			for i := uint64(0); i < tc.fields[8]; i++ {
				b.WriteByte(byte(i + 1))
			}
			b.WriteByte(0) // support length 0
		})
		if _, err := Restore(bytes.NewReader(data)); !errors.Is(err, xerr.ErrFormat) {
			t.Errorf("%s: err = %v, want wrapped ErrFormat", tc.name, err)
		}
	}
	// Histogram sum vs TotalPairs: one entry of count 2 against a
	// TotalPairs of 1. Needs a real stack (1 compulsory of 2 accesses).
	data := write([]uint64{8, 16, 0, 2, 1, 0, 1, 1, 1}, func(b *bytes.Buffer) {
		b.WriteByte(5) // stack block
		b.WriteByte(1) // support length
		b.WriteByte(3) // vector delta
		b.WriteByte(2) // count (sums to 2 != TotalPairs 1)
	})
	if _, err := Restore(bytes.NewReader(data)); !errors.Is(err, xerr.ErrFormat) {
		t.Errorf("histogram sum lie: err = %v, want wrapped ErrFormat", err)
	}
}

// cancelAfterSource delivers blocks and cancels the context once limit
// blocks have been handed out — the deterministic stand-in for a kill
// signal landing mid-profile. It delivers at most 512 blocks per read,
// so the sequential engine's per-read ctx poll stops a run within 512
// accesses of the kill.
func cancelAfterSource(blocks []uint64, limit int, cancel context.CancelFunc) BlockSource {
	i := 0
	return func(dst []uint64) (int, error) {
		if i >= len(blocks) {
			return 0, io.EOF
		}
		if i >= limit {
			cancel()
			// Keep delivering; the builder's ctx check stops the run.
		}
		k := copy(dst[:min(len(dst), 512)], blocks[i:])
		i += k
		return k, nil
	}
}

// TestBuildCheckpointedKillResume is the differential test of the
// checkpoint/resume contract: a run killed at arbitrary points and
// resumed from its snapshot file must converge to a profile
// bit-identical to an uninterrupted sequential Build.
func TestBuildCheckpointedKillResume(t *testing.T) {
	blocks := syntheticBlocks(40000)
	want := Build(blocks, 12, 64)
	path := filepath.Join(t.TempDir(), "profile.ckpt")
	kills := []int{700, 9000, 25000}
	runs := 0
	var got *Profile
	for attempt := 0; got == nil || got.Degraded; attempt++ {
		if attempt > len(kills)+1 {
			t.Fatal("resume did not converge")
		}
		ctx, cancel := context.WithCancel(context.Background())
		src := Blocks(blocks)
		if attempt < len(kills) {
			src = cancelAfterSource(blocks, kills[attempt], cancel)
		}
		p, err := BuildStream(ctx, src, 12, 64, Options{
			CheckpointPath: path, CheckpointEvery: 1000, Resume: true,
		})
		runs++
		if attempt < len(kills) {
			wantCanceled(t, err)
			if p == nil || !p.Degraded {
				t.Fatalf("kill %d: no degraded partial returned (p=%v err=%v)", attempt, p, err)
			}
			if p.Accesses == 0 || p.Accesses >= want.Accesses {
				t.Fatalf("kill %d: implausible partial progress %d of %d", attempt, p.Accesses, want.Accesses)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		got = p
		cancel()
	}
	if runs != len(kills)+1 {
		t.Fatalf("converged in %d runs, want %d", runs, len(kills)+1)
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatalf("resumed profile differs from uninterrupted build: %s", d)
	}
	// Resuming a completed run replays nothing and returns the same
	// profile again.
	again, err := BuildStream(context.Background(), Blocks(blocks), 12, 64, Options{
		CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(again, want); d != "" {
		t.Fatalf("re-resumed profile differs: %s", d)
	}
}

func TestBuildCheckpointedMatchesBuildWithoutPath(t *testing.T) {
	blocks := syntheticBlocks(20000)
	want := Build(blocks, 12, 64)
	got, err := BuildStream(context.Background(), Blocks(blocks), 12, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatal(d)
	}
}

func TestBuildCheckpointedSourceShorterThanSnapshot(t *testing.T) {
	blocks := syntheticBlocks(10000)
	path := filepath.Join(t.TempDir(), "profile.ckpt")
	bd := NewBuilder(12, 64)
	for _, b := range blocks {
		bd.Add(b)
	}
	if err := CheckpointFile(path, bd); err != nil {
		t.Fatal(err)
	}
	_, err := BuildStream(context.Background(), Blocks(blocks[:100]), 12, 64, Options{
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("short source: err = %v, want wrapped ErrFormat", err)
	}
}

func TestBuildCheckpointedGeometryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.ckpt")
	bd := NewBuilder(12, 64)
	bd.Add(1)
	if err := CheckpointFile(path, bd); err != nil {
		t.Fatal(err)
	}
	_, err := BuildStream(context.Background(), Blocks([]uint64{1}), 10, 64, Options{
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("geometry mismatch: err = %v, want wrapped ErrProfileMismatch", err)
	}
}

func TestBuildCtxReturnsDegradedPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := BuildStream(ctx, Blocks(syntheticBlocks(100)), 12, 64, Options{})
	wantCanceled(t, err)
	if p == nil || !p.Degraded {
		t.Fatalf("canceled sequential build returned p=%v, want a Degraded partial profile", p)
	}
}

func TestShardRunConvertsPanic(t *testing.T) {
	testShardHook = func(int) { panic("boom") }
	defer func() { testShardHook = nil }()
	s := &shardState{idx: 3, blocks: []uint64{1, 2, 3}}
	s.run(context.Background(), 8, 4, Options{})
	if !errors.Is(s.err, xerr.ErrPanic) {
		t.Fatalf("recovered panic: err = %v, want wrapped ErrPanic", s.err)
	}
	if got := s.err.Error(); !bytes.Contains([]byte(got), []byte("shard 3")) || !bytes.Contains([]byte(got), []byte("boom")) {
		t.Fatalf("panic error %q does not identify the shard and cause", got)
	}
	if s.p != nil {
		t.Fatal("panicked shard must not hand back a profile")
	}
}

// TestBuildStreamCheckpointedKillResume is the sharded analog of
// TestBuildCheckpointedKillResume, with a twist the sequential test
// cannot express: every resume attempt uses a different worker count
// and chunk size, so convergence also proves the snapshot is
// boundary-placement independent (a shard edge is not part of the
// reconciled state).
func TestBuildStreamCheckpointedKillResume(t *testing.T) {
	blocks := syntheticBlocks(40000)
	want := Build(blocks, 12, 64)
	path := filepath.Join(t.TempDir(), "profile.ckpt")
	kills := []int{900, 11000, 26000}
	var got *Profile
	for attempt := 0; got == nil || got.Degraded; attempt++ {
		if attempt > len(kills)+1 {
			t.Fatal("resume did not converge")
		}
		ctx, cancel := context.WithCancel(context.Background())
		src := Blocks(blocks)
		if attempt < len(kills) {
			src = cancelAfterSource(blocks, kills[attempt], cancel)
		}
		p, err := BuildStream(ctx, src, 12, 64, Options{Workers: 1 + attempt, chunkSize: 300 + 170*attempt,
			CheckpointPath: path, CheckpointEvery: 1500, Resume: true})
		if attempt < len(kills) {
			wantCanceled(t, err)
			if p == nil || !p.Degraded {
				t.Fatalf("kill %d: no degraded partial returned (p=%v err=%v)", attempt, p, err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		got = p
		cancel()
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatalf("resumed parallel profile differs from uninterrupted build: %s", d)
	}
}

func TestBuildStreamCheckpointedMatchesBuildWithoutPath(t *testing.T) {
	blocks := syntheticBlocks(20000)
	want := Build(blocks, 12, 64)
	got, err := BuildStream(context.Background(), Blocks(blocks), 12, 64,
		Options{Workers: 3, chunkSize: 640})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatal(d)
	}
}

// TestParallelSequentialSnapshotInterop pins the design claim that a
// reconciler's (profile, boundary stack) state at a shard boundary IS a
// sequential Builder state: a parallel run's snapshot resumes under the
// sequential builder and vice versa, both converging bit-identically.
func TestParallelSequentialSnapshotInterop(t *testing.T) {
	blocks := syntheticBlocks(30000)
	want := Build(blocks, 12, 64)

	// Parallel partial → sequential finish.
	path := filepath.Join(t.TempDir(), "p2s.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	p, err := BuildStream(ctx, cancelAfterSource(blocks, 12000, cancel), 12, 64,
		Options{Workers: 4, chunkSize: 512, CheckpointPath: path, CheckpointEvery: 2000, Resume: true})
	cancel()
	wantCanceled(t, err)
	if p == nil || !p.Degraded {
		t.Fatalf("killed parallel run returned p=%v err=%v, want a degraded partial", p, err)
	}
	got, err := BuildStream(context.Background(), Blocks(blocks), 12, 64,
		Options{CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatalf("sequential resume of a parallel snapshot differs: %s", d)
	}

	// Sequential partial → parallel finish.
	path2 := filepath.Join(t.TempDir(), "s2p.ckpt")
	ctx2, cancel2 := context.WithCancel(context.Background())
	p2, err := BuildStream(ctx2, cancelAfterSource(blocks, 9000, cancel2), 12, 64,
		Options{CheckpointPath: path2, CheckpointEvery: 1000, Resume: true})
	cancel2()
	wantCanceled(t, err)
	if p2 == nil || !p2.Degraded {
		t.Fatalf("killed sequential run returned p=%v err=%v, want a degraded partial", p2, err)
	}
	got2, err := BuildStream(context.Background(), Blocks(blocks), 12, 64,
		Options{Workers: 3, chunkSize: 777, CheckpointPath: path2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got2, want); d != "" {
		t.Fatalf("parallel resume of a sequential snapshot differs: %s", d)
	}
}

func TestBuildStreamCheckpointedGeometryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.ckpt")
	bd := NewBuilder(12, 64)
	bd.Add(1)
	if err := CheckpointFile(path, bd); err != nil {
		t.Fatal(err)
	}
	_, err := BuildStream(context.Background(), Blocks([]uint64{1}), 10, 64,
		Options{Workers: 2, CheckpointPath: path, Resume: true})
	if !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("geometry mismatch: err = %v, want wrapped ErrProfileMismatch", err)
	}
}

// TestStreamShardTransientFaultIsolated injects faultio-style transient
// failures only while one shard's chunk range is being read, with no
// retry beneath the source: the build must fail with the classified
// ErrIO — not a secondary cancellation — and a nil profile. Retried
// transient faults are TestStreamFaultMatrix's.
func TestStreamShardTransientFaultIsolated(t *testing.T) {
	blocks := syntheticBlocks(8192)
	const chunk = 1024 // faults land inside shard 2's range [2048, 3072)
	pos := 0
	src := func(dst []uint64) (int, error) {
		if pos >= len(blocks) {
			return 0, io.EOF
		}
		if pos >= 2*chunk && pos < 3*chunk {
			return 0, xerr.ErrIO
		}
		k := copy(dst, blocks[pos:])
		pos += k
		return k, nil
	}
	baseline := runtime.NumGoroutine()
	p, err := BuildStream(context.Background(), src, 12, 64, Options{Workers: 4, chunkSize: chunk})
	if p != nil {
		t.Fatal("failed build must not return a profile")
	}
	if !errors.Is(err, xerr.ErrIO) {
		t.Fatalf("err = %v, want wrapped ErrIO", err)
	}
	if errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("err = %v, the I/O failure must not be reported as a cancellation", err)
	}
	waitGoroutines(t, baseline)
}

// readerBlocks adapts a trace reader to a BlockSource of block
// addresses (shift, then mask to n bits) decoded in dst-sized reads.
func readerBlocks(rd *trace.Reader, shift, n int) BlockSource {
	var acc []trace.Access
	return func(dst []uint64) (int, error) {
		if len(acc) < len(dst) {
			acc = make([]trace.Access, len(dst))
		}
		k, err := rd.Read(acc[:len(dst)])
		for i, a := range acc[:k] {
			dst[i] = a.Addr >> shift & (1<<n - 1)
		}
		return k, err
	}
}

// TestStreamFaultMatrix drives the full streaming pipeline (faulty
// bytes -> retrying reader -> trace decoder -> sharded builders) under
// every fault schedule and worker count. The invariants: transient
// faults are invisible (bit-identical profile), permanent faults fail
// the build with a classified error and a nil profile (never a
// half-merged histogram), and no schedule leaks goroutines.
func TestStreamFaultMatrix(t *testing.T) {
	tr := &trace.Trace{Name: "matrix"}
	for _, b := range syntheticBlocks(20000) {
		tr.Append(b<<6, trace.Read)
	}
	var enc bytes.Buffer
	if err := trace.Encode(&enc, tr); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()
	want := Build(tr.Blocks(64, 12), 12, 64)

	schedules := []struct {
		name      string
		sched     faultio.Schedule
		transient bool // faults are recoverable: expect a bit-identical success
	}{
		{"clean", faultio.Schedule{}, true},
		{"transient", faultio.Schedule{Seed: 1, Transient: 0.3, MaxTransients: 200}, true},
		{"transient+short", faultio.Schedule{Seed: 2, Transient: 0.2, ShortRead: 0.6, MaxTransients: 200}, true},
		{"truncated", faultio.Schedule{Seed: 3, TruncateAfter: int64(len(data) * 2 / 3)}, false},
		{"corrupt", faultio.Schedule{Seed: 4, CorruptBit: 0.2}, false},
		{"everything", faultio.Schedule{Seed: 5, Transient: 0.2, ShortRead: 0.5, CorruptBit: 0.2,
			MaxTransients: 200, TruncateAfter: int64(len(data) / 2)}, false},
	}
	for _, sc := range schedules {
		for _, workers := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				fr, err := faultio.NewReader(bytes.NewReader(data), sc.sched)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := faultio.NewRetryReader(context.Background(), fr, faultio.Policy{MaxRetries: 12})
				if err != nil {
					t.Fatal(err)
				}
				rd, err := trace.NewReader(rr)
				if err != nil {
					if sc.transient {
						t.Fatalf("header under recoverable faults: %v", err)
					}
					if !errors.Is(err, xerr.ErrFormat) {
						t.Fatalf("header error %v is not a wrapped ErrFormat", err)
					}
					waitGoroutines(t, baseline)
					return
				}
				src := readerBlocks(rd, 6, 12)
				p, err := BuildStream(context.Background(), src, 12, 64,
					Options{Workers: workers, chunkSize: 256})
				waitGoroutines(t, baseline)
				if sc.transient {
					if err != nil {
						t.Fatalf("recoverable schedule failed the build: %v", err)
					}
					if d := diffProfiles(p, want); d != "" {
						t.Fatalf("profile differs under recoverable faults: %s", d)
					}
					return
				}
				// Permanent faults: either the corruption slipped past the
				// format checks into valid-but-different records (a complete,
				// self-consistent profile), or the build failed cleanly.
				if err != nil {
					if p != nil {
						t.Fatalf("failed build returned a (half-merged?) profile alongside %v", err)
					}
					if !errors.Is(err, xerr.ErrFormat) && !errors.Is(err, xerr.ErrIO) {
						t.Fatalf("error %v is neither a format nor an I/O classification", err)
					}
					return
				}
				if p == nil || p.Degraded {
					t.Fatalf("successful build returned p=%v", p)
				}
			})
		}
	}
}

// FuzzCheckpointCodec: arbitrary snapshot bytes either restore to a
// self-consistent builder that round-trips bit-identically, or fail
// with a wrapped xerr.ErrFormat. No input may panic the decoder.
func FuzzCheckpointCodec(f *testing.F) {
	for _, size := range []int{0, 100, 2000} {
		bd := NewBuilder(10, 16)
		for _, b := range syntheticBlocks(size) {
			bd.Add(b)
		}
		var buf bytes.Buffer
		if err := bd.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("XPC1 not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bd, err := Restore(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, xerr.ErrFormat) {
				t.Fatalf("Restore error %v does not wrap xerr.ErrFormat", err)
			}
			return
		}
		// Accepted: the snapshot must round-trip bit-identically.
		var buf bytes.Buffer
		if err := bd.Checkpoint(&buf); err != nil {
			t.Fatalf("re-checkpoint of accepted snapshot: %v", err)
		}
		bd2, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-restore of accepted snapshot: %v", err)
		}
		if bd2.Pos() != bd.Pos() {
			t.Fatalf("positions diverge: %d vs %d", bd2.Pos(), bd.Pos())
		}
		if d := diffProfiles(bd2.Finish(), bd.Finish()); d != "" {
			t.Fatalf("accepted snapshot does not round-trip: %s", d)
		}
	})
}
