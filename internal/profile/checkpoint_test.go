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
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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

// Golden snapshots of TestSnapshotGoldenBytes: the current XPC1 and
// XWP1 formats, and the XPC1 version 1 and XWP1 version 2 bytes the
// same builders wrote before both formats shared one Builder codec.
const (
	xpc1 = "58504331021e060400000000280400243d0006090a090a090a090b120a090a041b120024146d3d98"
	xwp1 = "58575031033c06040002013814000014120a06090309030902090312040903041200241b80808080808080f03f013c" +
		"280400241e1206090509050906090512040905a0fc234a"

	xpc1v1 = "58504331011a060400280400243d041b12002406090a090a090a090b120a090a5fc9b8ee"
	xwp1v2 = "58575031023c06040080808080808080f03f013c020138280400241e12060905090509060905120409" +
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
		t.Errorf("XPC1 snapshot\n%s\nwant\n%s", got, xpc1)
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
		t.Errorf("XWP1 snapshot\n%s\nwant\n%s", got, xwp1)
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
// (empty windows, no sampling fields), and xpc1v1 and xwp1v2 are
// complete snapshots, all of which older builds restored.
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
	// The formats before the shared Builder codec are refused too: no
	// reader for them is kept.
	raw, _ := hex.DecodeString(xpc1v1)
	if _, err := Restore(bytes.NewReader(raw)); !errors.Is(err, xerr.ErrFormat) || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("XPC1 version 1: err = %v, want a wrapped ErrFormat naming the version", err)
	}
	raw, _ = hex.DecodeString(xwp1v2)
	if _, err := RestoreWindowed(bytes.NewReader(raw)); !errors.Is(err, xerr.ErrFormat) || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("XWP1 version 2: err = %v, want a wrapped ErrFormat naming the version", err)
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
// violate the profiling invariants (counter arithmetic, sampling state,
// histogram sum, stack/compulsory equality) must be rejected even
// though the CRC is valid — this is what protects against a logically
// corrupt snapshot, not just a bit-rotted one. A consistent control
// payload must restore, so each lie is refused for its own reason.
func TestRestoreRejectsConsistentLies(t *testing.T) {
	// write forges an XPC1 payload: the header fields (n, cacheBlocks,
	// backend byte, sampleK, sampleSeed, sample ordinal, accesses,
	// compulsory, capacity, candidates, totalPairs, sampledCandidates),
	// then raw uvarints for the support and the stack listing.
	write := func(head [12]uint64, tail []uint64) []byte {
		var buf bytes.Buffer
		err := ckpt.Write(&buf, checkpointMagic, checkpointVersion, func(b *bytes.Buffer) error {
			for i, v := range append(head[:], tail...) {
				if i == 2 {
					b.WriteByte(byte(v))
				} else {
					b.Write(binary.AppendUvarint(nil, v))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// One candidate with one pair (vector 3) and one block (5) on the
	// stack: support length, delta, count, stack length, block.
	onePair := []uint64{1, 3, 1, 1, 5}
	cases := []struct {
		name string
		head [12]uint64
		tail []uint64
		want string // in the error; "" for the control
	}{
		{"control", [12]uint64{8, 16, 0, 4, 0, 1, 2, 1, 0, 1, 1, 1}, onePair, ""},
		{"counters disagree", [12]uint64{8, 16, 0, 0, 0, 0, 10, 1, 1, 1, 0, 0}, []uint64{0, 1, 1}, "counters disagree"},
		{"stack/compulsory mismatch", [12]uint64{8, 16, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0}, []uint64{0, 1, 1}, "compulsory counter"},
		{"flat backend too wide", [12]uint64{40, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []uint64{0, 0}, "backend byte"},
		{"zero geometry", [12]uint64{0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []uint64{0, 0}, "geometry"},
		{"histogram sum", [12]uint64{8, 16, 0, 0, 0, 0, 2, 1, 0, 1, 1, 0}, []uint64{1, 3, 2, 1, 5}, "sums to 2 pairs"},
		{"sampled beyond candidates", [12]uint64{8, 16, 0, 4, 0, 1, 2, 1, 0, 1, 1, 2}, onePair, "sampled 2 of 1"},
		{"exact with sampling state", [12]uint64{8, 16, 0, 1, 7, 0, 1, 1, 0, 0, 0, 0}, []uint64{0, 1, 5}, "without sampling"},
		{"gate ordinal behind candidates", [12]uint64{8, 16, 0, 4, 0, 0, 2, 1, 0, 1, 1, 0}, onePair, "gate ordinal 0"},
	}
	for _, tc := range cases {
		_, err := Restore(bytes.NewReader(write(tc.head, tc.tail)))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (!errors.Is(err, xerr.ErrFormat) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want a wrapped ErrFormat containing %q", tc.name, err, tc.want)
		}
	}
}

// cancelAfterSource delivers blocks and cancels the context once any
// pass has handed out the accesses before position limit — the
// deterministic stand-in for a kill signal landing mid-profile. It is
// re-readable and declares its length, so a build over several slices
// reads it once per slice, and it delivers at most 512 accesses per
// chunk, so a slice's per-chunk ctx poll stops it within 512 accesses
// of the kill.
func cancelAfterSource(blocks []uint64, limit int, cancel context.CancelFunc) source {
	return source{len(blocks), func() passFunc {
		rest, i := blockTrace(blocks).Accesses, 0
		return func() ([]trace.Access, error) {
			if len(rest) == 0 {
				return nil, io.EOF
			}
			if i >= limit {
				cancel()
				// Keep delivering; the slice's ctx check stops it.
			}
			k := min(512, len(rest))
			chunk := rest[:k]
			rest, i = rest[k:], i+k
			return chunk, nil
		}
	}}
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
		var src trace.Source = blockTrace(blocks)
		if attempt < len(kills) {
			src = cancelAfterSource(blocks, kills[attempt], cancel)
		}
		p, err := BuildStream(ctx, src, 1, 12, 64, Options{
			CheckpointPath: path, checkpointEvery: 1000, Resume: true,
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
	again, err := BuildStream(context.Background(), blockTrace(blocks), 1, 12, 64, Options{
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
	got, err := BuildStream(context.Background(), blockTrace(blocks), 1, 12, 64, Options{})
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
	_, err := BuildStream(context.Background(), blockTrace(blocks[:100]), 1, 12, 64, Options{
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
	_, err := BuildStream(context.Background(), blockTrace([]uint64{1}), 1, 10, 64, Options{
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("geometry mismatch: err = %v, want wrapped ErrProfileMismatch", err)
	}
}

// TestBuildCheckpointedSampledKillResume is the sampled (K = 16) form
// of TestBuildCheckpointedKillResume: a pass killed at seeded points and
// resumed from its snapshot converges to a profile bit-identical to an
// uninterrupted sampled pass, SampledCandidates included, because the
// snapshot carries the gate's candidate ordinal. Workers 4 runs the
// sequential engine too, since sampling forces it.
func TestBuildCheckpointedSampledKillResume(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(67)), 40_000)
	sample := SampleOptions{K: 16, Seed: 9}
	want := buildSampled(blocks, 16, 64, sample)
	rng := rand.New(rand.NewSource(68))
	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "sampled.ckpt")
		kills := []int{1 + rng.Intn(12_000)}
		for len(kills) < 3 {
			kills = append(kills, kills[len(kills)-1]+1_000+rng.Intn(12_000))
		}
		var got *Profile
		for attempt := 0; got == nil || got.Degraded; attempt++ {
			if attempt > len(kills) {
				t.Fatalf("workers=%d: resume did not converge", workers)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var src trace.Source = blockTrace(blocks)
			if attempt < len(kills) {
				src = cancelAfterSource(blocks, kills[attempt], cancel)
			}
			p, err := BuildStream(ctx, src, 1, 16, 64, Options{Workers: workers, Sample: sample,
				CheckpointPath: path, checkpointEvery: 1000, Resume: true})
			cancel()
			if attempt < len(kills) {
				wantCanceled(t, err)
				if p == nil || !p.Degraded || p.Accesses < uint64(kills[attempt]) {
					t.Fatalf("workers=%d kill %d at %d: partial p=%v err=%v", workers, attempt, kills[attempt], p, err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			got = p
		}
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("workers=%d kills %v: resumed sampled profile differs: %s", workers, kills, d)
		}
	}
}

// TestBuildCheckpointedSamplingMismatch: a snapshot resumes only a pass
// that samples the same subset — another K, another seed, or exact
// against sampled either way is a wrapped ErrProfileMismatch, while an
// exact snapshot resumes under any seed of an exact pass.
func TestBuildCheckpointedSamplingMismatch(t *testing.T) {
	blocks := conflictHeavyBlocks(rand.New(rand.NewSource(70)), 2_000)
	for _, c := range []struct {
		wrote, resume SampleOptions
		ok            bool
	}{
		{SampleOptions{K: 16, Seed: 1}, SampleOptions{K: 8, Seed: 1}, false},
		{SampleOptions{K: 16, Seed: 1}, SampleOptions{K: 16, Seed: 2}, false},
		{SampleOptions{K: 16, Seed: 1}, SampleOptions{}, false},
		{SampleOptions{}, SampleOptions{K: 16}, false},
		{SampleOptions{K: 16, Seed: 1}, SampleOptions{K: 16, Seed: 1}, true},
		{SampleOptions{}, SampleOptions{K: 1, Seed: 5}, true},
	} {
		path := filepath.Join(t.TempDir(), "profile.ckpt")
		bd := NewBuilder(16, 64)
		bd.setSampling(c.wrote)
		for _, b := range blocks[:1000] {
			bd.Add(b)
		}
		if err := CheckpointFile(path, bd); err != nil {
			t.Fatal(err)
		}
		_, err := BuildStream(context.Background(), blockTrace(blocks), 1, 16, 64,
			Options{Sample: c.resume, CheckpointPath: path, Resume: true})
		if c.ok && err != nil || !c.ok && !errors.Is(err, xerr.ErrProfileMismatch) {
			t.Errorf("wrote %+v, resumed %+v: err = %v, want ok=%v or a wrapped ErrProfileMismatch",
				c.wrote, c.resume, err, c.ok)
		}
	}
}

func TestBuildCtxReturnsDegradedPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := BuildStream(ctx, blockTrace(syntheticBlocks(100)), 1, 12, 64, Options{})
	wantCanceled(t, err)
	if p == nil || !p.Degraded {
		t.Fatalf("canceled sequential build returned p=%v, want a Degraded partial profile", p)
	}
}

func TestShardRunConvertsPanic(t *testing.T) {
	testSliceHook = func(int, uint64) { panic("boom") }
	defer func() { testSliceHook = nil }()
	s := &slice{idx: 3, from: 1, to: 3, bd: NewBuilder(8, 4)}
	s.run(context.Background(), blockTrace([]uint64{1, 2, 3}), 0, Options{})
	if !errors.Is(s.err, xerr.ErrPanic) {
		t.Fatalf("recovered panic: err = %v, want wrapped ErrPanic", s.err)
	}
	if got := s.err.Error(); !bytes.Contains([]byte(got), []byte("slice 3")) || !bytes.Contains([]byte(got), []byte("boom")) {
		t.Fatalf("panic error %q does not identify the slice and cause", got)
	}
}

// TestBuildStreamCheckpointedKillResume is the parallel analog of
// TestBuildCheckpointedKillResume, with a twist the sequential test
// cannot express: every attempt uses a different worker count, so
// convergence also proves the snapshot is independent of where the
// slice boundaries fell (a slice edge is not part of the joined
// state).
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
		var src trace.Source = blockTrace(blocks)
		if attempt < len(kills) {
			src = cancelAfterSource(blocks, kills[attempt], cancel)
		}
		p, err := BuildStream(ctx, src, 1, 12, 64, Options{Workers: 2 + 3*attempt,
			CheckpointPath: path, checkpointEvery: 1500, Resume: true})
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
	got, err := BuildStream(context.Background(), blockTrace(blocks), 1, 12, 64,
		Options{Workers: 31})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got, want); d != "" {
		t.Fatal(d)
	}
}

// TestParallelSequentialSnapshotInterop pins the design claim that the
// joined prefix at a slice boundary IS a sequential Builder state: a
// parallel run's snapshot resumes under one slice and vice versa, both
// converging bit-identically.
func TestParallelSequentialSnapshotInterop(t *testing.T) {
	blocks := syntheticBlocks(30000)
	want := Build(blocks, 12, 64)

	// Parallel partial → sequential finish. Slice 1 of [15000, 30000)
	// waits at its start until slice 0 has closed its pass, so the kill
	// at 24000 leaves a partial joined across both slices.
	path := filepath.Join(t.TempDir(), "p2s.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	src := &firstClose{Source: cancelAfterSource(blocks, 24000, cancel), done: make(chan struct{})}
	testSliceHook = func(idx int, _ uint64) {
		if idx == 1 {
			<-src.done
		}
	}
	p, err := BuildStream(ctx, src, 1, 12, 64,
		Options{Workers: 2, CheckpointPath: path, checkpointEvery: 2000, Resume: true})
	testSliceHook = nil
	cancel()
	wantCanceled(t, err)
	if p == nil || !p.Degraded || p.Accesses <= 15000 {
		t.Fatalf("killed parallel run returned p=%v err=%v, want a degraded partial past slice 0", p, err)
	}
	got, err := BuildStream(context.Background(), blockTrace(blocks), 1, 12, 64,
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
	p2, err := BuildStream(ctx2, cancelAfterSource(blocks, 9000, cancel2), 1, 12, 64,
		Options{CheckpointPath: path2, checkpointEvery: 1000, Resume: true})
	cancel2()
	wantCanceled(t, err)
	if p2 == nil || !p2.Degraded {
		t.Fatalf("killed sequential run returned p=%v err=%v, want a degraded partial", p2, err)
	}
	got2, err := BuildStream(context.Background(), blockTrace(blocks), 1, 12, 64,
		Options{Workers: 3, CheckpointPath: path2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffProfiles(got2, want); d != "" {
		t.Fatalf("parallel resume of a sequential snapshot differs: %s", d)
	}
}

// firstClose is a trace source whose first closed pass closes done.
type firstClose struct {
	trace.Source
	once sync.Once
	done chan struct{}
}

func (s *firstClose) Pass(ctx context.Context) (trace.Pass, error) {
	p, err := s.Source.Pass(ctx)
	return closeHook{p, func() { s.once.Do(func() { close(s.done) }) }}, err
}

// closeHook is a pass that calls f when it is closed.
type closeHook struct {
	trace.Pass
	f func()
}

func (c closeHook) Close() error {
	c.f()
	return c.Pass.Close()
}

func TestBuildStreamCheckpointedGeometryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.ckpt")
	bd := NewBuilder(12, 64)
	bd.Add(1)
	if err := CheckpointFile(path, bd); err != nil {
		t.Fatal(err)
	}
	_, err := BuildStream(context.Background(), blockTrace([]uint64{1}), 1, 10, 64,
		Options{Workers: 2, CheckpointPath: path, Resume: true})
	if !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("geometry mismatch: err = %v, want wrapped ErrProfileMismatch", err)
	}
}

// TestStreamShardTransientFaultIsolated injects faultio-style transient
// failures only while one range of the trace is being read, with no
// retry beneath the source: the build must fail with the classified
// ErrIO — not a secondary cancellation of the slices it stops — and a
// nil profile. Retried transient faults are TestStreamFaultMatrix's.
func TestStreamShardTransientFaultIsolated(t *testing.T) {
	blocks := syntheticBlocks(8192)
	const chunk = 1024 // faults land inside slice 1's range [2048, 4096)
	src := source{len(blocks), func() passFunc {
		rest, pos := blockTrace(blocks).Accesses, 0
		return func() ([]trace.Access, error) {
			if pos >= len(blocks) {
				return nil, io.EOF
			}
			if pos >= 3*chunk && pos < 4*chunk {
				return nil, xerr.ErrIO
			}
			c := rest[pos : pos+chunk]
			pos += chunk
			return c, nil
		}
	}}
	baseline := runtime.NumGoroutine()
	p, err := BuildStream(context.Background(), src, 1, 12, 64, Options{Workers: 4})
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

// TestStreamFaultMatrix drives the full streaming pipeline (faulty
// bytes -> retrying reader -> trace decoder -> slice builders) under
// every fault schedule and worker count; every slice reads its own
// pass through the same schedule. The invariants: transient
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
				open := func() (*trace.Reader, error) {
					fr, err := faultio.NewReader(bytes.NewReader(data), sc.sched)
					if err != nil {
						return nil, err
					}
					rr, err := faultio.NewRetryReader(context.Background(), fr, faultio.Policy{MaxRetries: 12})
					if err != nil {
						return nil, err
					}
					return trace.NewReader(rr)
				}
				rd, err := open()
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
				src := source{int(rd.Header().Len), func() passFunc {
					rd, err := open()
					if err != nil {
						return func() ([]trace.Access, error) { return nil, err }
					}
					return rd.Chunk
				}}
				p, err := BuildStream(context.Background(), src, 64, 12, 64, Options{Workers: workers})
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
// self-consistent builder or windowed profile that round-trips
// bit-identically, or fail with a wrapped xerr.ErrFormat. No input may
// panic either decoder. The seeds cover exact and sampled builders and
// exact and sampled windowed profiles, which share the Builder codec.
func FuzzCheckpointCodec(f *testing.F) {
	for _, size := range []int{0, 100, 2000} {
		for _, sample := range []SampleOptions{{}, {K: 4, Seed: 3}} {
			bd := NewBuilder(10, 16)
			bd.setSampling(sample)
			w, err := NewWindowed(10, 16, 0.25, sample)
			if err != nil {
				f.Fatal(err)
			}
			for i, b := range syntheticBlocks(size) {
				bd.Add(b)
				if w.Add(b); i%700 == 699 {
					w.Rotate()
				}
			}
			var buf, wbuf bytes.Buffer
			if err := bd.Checkpoint(&buf); err != nil {
				f.Fatal(err)
			}
			if err := w.Checkpoint(&wbuf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			f.Add(wbuf.Bytes())
		}
	}
	f.Add([]byte{})
	f.Add([]byte("XPC1 not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if bd, err := Restore(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, xerr.ErrFormat) {
				t.Fatalf("Restore error %v does not wrap xerr.ErrFormat", err)
			}
		} else {
			// Accepted: the snapshot must round-trip bit-identically.
			bd2, err := Restore(bytes.NewReader(snapshotBytes(t, bd)))
			if err != nil {
				t.Fatalf("re-restore of accepted snapshot: %v", err)
			}
			if bd2.Pos() != bd.Pos() {
				t.Fatalf("positions diverge: %d vs %d", bd2.Pos(), bd.Pos())
			}
			if d := diffProfiles(bd2.Finish(), bd.Finish()); d != "" {
				t.Fatalf("accepted snapshot does not round-trip: %s", d)
			}
		}
		w, err := RestoreWindowed(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, xerr.ErrFormat) {
				t.Fatalf("RestoreWindowed error %v does not wrap xerr.ErrFormat", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := w.Checkpoint(&buf); err != nil {
			t.Fatalf("re-checkpoint of accepted windowed snapshot: %v", err)
		}
		w2, err := RestoreWindowed(&buf)
		if err != nil {
			t.Fatalf("re-restore of accepted windowed snapshot: %v", err)
		}
		if w2.Total() != w.Total() || w2.Rotations() != w.Rotations() || w2.Decay() != w.Decay() {
			t.Fatalf("windowed stream state diverges")
		}
		if d := diffProfiles(w2.Snapshot(), w.Snapshot()); d != "" {
			t.Fatalf("accepted windowed snapshot does not round-trip: %s", d)
		}
	})
}

// TestRestoreForgedLengthsAllocateLittle hands Restore and
// RestoreWindowed payloads that claim n = 24 but whose support or gate
// length runs past the payload's end. Each must be refused before the
// flat builder's 2^24-entry table and gate stamps (256 MB) are made.
func TestRestoreForgedLengthsAllocateLittle(t *testing.T) {
	head := func(e encoder) {
		e.put(24, 1) // n, cacheBlocks
		e.WriteByte(backendByte(24))
		e.put(0, 0, 0)          // exact: no sampling state
		e.put(0, 0, 0, 0, 0, 0) // counters
	}
	payloads := map[string]func(encoder){
		"support length": func(e encoder) { head(e); e.put(1000) },
		"gate length":    func(e encoder) { head(e); e.put(0, 1000) },
	}
	restores := []struct {
		magic   string
		version uint64
		restore func(io.Reader) error
	}{
		{checkpointMagic, checkpointVersion, func(r io.Reader) error { _, err := Restore(r); return err }},
		{windowMagic, windowVersion, func(r io.Reader) error { _, err := RestoreWindowed(r); return err }},
	}
	for name, payload := range payloads {
		for _, rs := range restores {
			var raw bytes.Buffer
			if err := ckpt.Write(&raw, rs.magic, rs.version, func(b *bytes.Buffer) error {
				payload(encoder{b})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var err error
			alloc := allocDelta(func() { err = rs.restore(&raw) })
			if !errors.Is(err, xerr.ErrFormat) {
				t.Errorf("%s %s: err = %v, want ErrFormat", rs.magic, name, err)
			}
			if alloc > 1<<20 {
				t.Errorf("%s %s: refusal allocated %d bytes, want under 1 MiB", rs.magic, name, alloc)
			}
		}
	}
}

// allocDelta returns the bytes f allocates on the heap.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
