package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xoridx/internal/ckpt"
	"xoridx/internal/core"
	"xoridx/internal/faultio"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// serveConfig is the small general-XOR geometry the serve tests tune:
// 64 direct-mapped blocks (m=6) over 12 address bits.
func serveConfig() core.Config {
	return core.Config{CacheBytes: 256, AddrBits: 12, Family: hash.FamilyGeneralXOR}
}

// phaseBlocks returns one batch of a phase-shifting workload: phase 0
// round-robins over hot blocks spaced exactly one cache apart (every
// one of them lands in set 0 under modulo indexing — the pathological
// conflict pattern the paper's XOR functions eliminate), phase 1 does
// the same at a different alignment so the tuned matrix for phase 0 is
// wrong again.
func phaseBlocks(phase, batch int, pos *int) []uint64 {
	const cacheBlocks = 64
	hot := 8
	out := make([]uint64, batch)
	for i := range out {
		k := (*pos + i) % hot
		if phase == 0 {
			out[i] = uint64(k * cacheBlocks)
		} else {
			out[i] = uint64(k*2*cacheBlocks + 17)
		}
	}
	*pos += batch
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// profilesEqual compares two profiles entry by entry, counters
// included.
func profilesEqual(t *testing.T, got, want *profile.Profile) {
	t.Helper()
	if got.N != want.N || got.CacheBlocks != want.CacheBlocks {
		t.Fatalf("geometry differs: n=%d/%d blocks=%d/%d", got.N, want.N, got.CacheBlocks, want.CacheBlocks)
	}
	if got.Accesses != want.Accesses || got.Compulsory != want.Compulsory ||
		got.Capacity != want.Capacity || got.Candidates != want.Candidates ||
		got.TotalPairs != want.TotalPairs {
		t.Fatalf("counters differ: got {acc %d comp %d cap %d cand %d pairs %d}, want {acc %d comp %d cap %d cand %d pairs %d}",
			got.Accesses, got.Compulsory, got.Capacity, got.Candidates, got.TotalPairs,
			want.Accesses, want.Compulsory, want.Capacity, want.Candidates, want.TotalPairs)
	}
	gs, ws := got.Support(), want.Support()
	gm := make(map[uint64]uint64, len(gs))
	for _, vc := range gs {
		gm[uint64(vc.Vec)] = vc.Count
	}
	if len(gs) != len(ws) {
		t.Fatalf("support sizes differ: %d vs %d", len(gs), len(ws))
	}
	for _, vc := range ws {
		if gm[uint64(vc.Vec)] != vc.Count {
			t.Fatalf("histogram[%#x] = %d, want %d", uint64(vc.Vec), gm[uint64(vc.Vec)], vc.Count)
		}
	}
}

// checkNoLeaks fails the test if goroutines have not returned to the
// pre-test baseline.
func checkNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServePhaseShiftHotSwap is the end-to-end serving loop: concurrent
// clients stream a phase-shifting workload, the window-boundary
// optimizer re-tunes in the background, and the epoch hot-swaps while
// concurrent readers watch Current without ever blocking or observing
// a regression. Run under -race this also proves the ingest fast path,
// the shard goroutines, the singleflight and the atomic swap share no
// unsynchronized state.
func TestServePhaseShiftHotSwap(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Options{
		Config:         serveConfig(),
		Shards:         4,
		WindowAccesses: 1 << 12,
		Decay:          0.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Readers: Current must always be non-nil with monotone sequence
	// numbers, and epochs must honor the publish guard.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	var readerErr atomic.Pointer[string]
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastSeq uint64
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				ep := s.Current()
				switch {
				case ep == nil:
					msg := "Current returned nil"
					readerErr.CompareAndSwap(nil, &msg)
					return
				case ep.Seq < lastSeq:
					msg := "epoch sequence went backwards"
					readerErr.CompareAndSwap(nil, &msg)
					return
				case ep.Seq > 1 && ep.Estimated > ep.PrevEstimated:
					msg := "published epoch worse than its predecessor"
					readerErr.CompareAndSwap(nil, &msg)
					return
				}
				lastSeq = ep.Seq
			}
		}()
	}

	// Clients: 8 concurrent streams of phase 0, then phase 1.
	ingestPhase := func(phase int) {
		var clients sync.WaitGroup
		for c := 0; c < 8; c++ {
			clients.Add(1)
			go func(id uint64) {
				defer clients.Done()
				pos := 0
				for b := 0; b < 24; b++ {
					if err := s.IngestBlocks(id, phaseBlocks(phase, 256, &pos)); err != nil {
						t.Error(err)
						return
					}
				}
			}(uint64(c))
		}
		clients.Wait()
	}

	ingestPhase(0)
	waitFor(t, 10*time.Second, "first background re-tune", func() bool {
		return s.Stats().Retunes >= 1
	})
	ingestPhase(1)
	waitFor(t, 10*time.Second, "second background re-tune", func() bool {
		return s.Stats().Retunes >= 2
	})
	// One explicit round so the final epoch reflects all of phase 1.
	ep, err := s.Retune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.Estimated > ep.PrevEstimated {
		t.Fatalf("publish guard violated: estimated %d > previous %d", ep.Estimated, ep.PrevEstimated)
	}

	close(stopReaders)
	readers.Wait()
	if msg := readerErr.Load(); msg != nil {
		t.Fatalf("reader observed: %s", *msg)
	}
	st := s.Stats()
	if st.Swaps < 1 {
		t.Fatalf("phase-shifting workload produced no hot swap: %+v", st)
	}
	if st.Ingested == 0 || st.EpochSeq < 2 {
		t.Fatalf("implausible final stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
	if err := s.IngestBlocks(1, []uint64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after Close: %v, want ErrClosed", err)
	}
	checkNoLeaks(t, baseline)
}

// TestServeDecayZeroMatchesBatchBuild pins the serving loop's
// correctness anchor: with one shard and decay 0, the live merged
// profile equals a batch profile.Build over every access ingested so
// far — rotations and all.
func TestServeDecayZeroMatchesBatchBuild(t *testing.T) {
	s, err := New(Options{
		Config:         serveConfig(),
		Shards:         1,
		WindowAccesses: 1 << 40, // no background rotations: the test rotates explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(7))
	var all []uint64
	ingest := func(k int) {
		batch := make([]uint64, k)
		for i := range batch {
			switch rng.Intn(3) {
			case 0:
				batch[i] = uint64(rng.Intn(16) * 64)
			case 1:
				batch[i] = uint64(rng.Intn(1 << 12))
			default:
				batch[i] = uint64(rng.Intn(200))
			}
		}
		all = append(all, batch...)
		if err := s.IngestBlocks(3, batch); err != nil {
			t.Fatal(err)
		}
	}

	ingest(1500)
	if _, err := s.Retune(context.Background()); err != nil { // forces a rotation
		t.Fatal(err)
	}
	ingest(900)
	if _, err := s.Retune(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingest(400)

	got, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	want := profile.Build(all, 12, 64)
	profilesEqual(t, got, want)
	if s.Stats().Rotations != 2 {
		t.Fatalf("rotations = %d, want 2", s.Stats().Rotations)
	}
}

// driveDeterministic ingests a fixed stream (one sender, fixed client
// IDs round-robin) so two servers fed the same parts hold identical
// state.
func driveDeterministic(t *testing.T, s *Server, part []uint64) {
	t.Helper()
	const batch = 128
	for i := 0; i < len(part); i += batch {
		end := i + batch
		if end > len(part) {
			end = len(part)
		}
		if err := s.IngestBlocks(uint64(i/batch%4), part[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeKillRestartResumesExactly is the crash-safety differential:
// a server checkpointed after round 1 and restarted with Resume
// finishes with the same epoch (sequence, matrix, estimates) and the
// same profiles as one that ran uninterrupted.
func TestServeKillRestartResumesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mkPart := func(k int) []uint64 {
		part := make([]uint64, k)
		for i := range part {
			if rng.Intn(2) == 0 {
				part[i] = uint64(rng.Intn(12) * 64)
			} else {
				part[i] = uint64(rng.Intn(1 << 12))
			}
		}
		return part
	}
	part1, part2 := mkPart(3000), mkPart(2500)
	opts := func(ckptPath string, resume bool) Options {
		return Options{
			Config:         serveConfig(),
			Shards:         2,
			WindowAccesses: 1 << 40,
			Decay:          0.25,
			CheckpointPath: ckptPath,
			Resume:         resume,
		}
	}

	// Reference: uninterrupted run.
	ref, err := New(opts("", false))
	if err != nil {
		t.Fatal(err)
	}
	driveDeterministic(t, ref, part1)
	if _, err := ref.Retune(context.Background()); err != nil {
		t.Fatal(err)
	}
	driveDeterministic(t, ref, part2)
	refEp, err := ref.Retune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	refProfile, err := ref.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Killed run: same stream up to round 1, checkpoint, gone.
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s1, err := New(opts(path, false))
	if err != nil {
		t.Fatal(err)
	}
	driveDeterministic(t, s1, part1)
	if _, err := s1.Retune(context.Background()); err != nil { // persists the checkpoint
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: resume, then the rest of the stream.
	s2, err := New(opts(path, true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Current().Seq; got != 2 {
		t.Fatalf("resumed epoch seq = %d, want 2", got)
	}
	driveDeterministic(t, s2, part2)
	gotEp, err := s2.Retune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotProfile, err := s2.Profile()
	if err != nil {
		t.Fatal(err)
	}

	if gotEp.Seq != refEp.Seq || gotEp.Window != refEp.Window {
		t.Fatalf("resumed run ended at epoch %d/window %d, reference %d/%d",
			gotEp.Seq, gotEp.Window, refEp.Seq, refEp.Window)
	}
	if !gotEp.Func.Matrix().Equal(refEp.Func.Matrix()) {
		t.Fatal("resumed run converged to a different matrix than the uninterrupted one")
	}
	if gotEp.Estimated != refEp.Estimated || gotEp.PrevEstimated != refEp.PrevEstimated ||
		gotEp.Baseline != refEp.Baseline {
		t.Fatalf("resumed estimates {%d %d %d} differ from reference {%d %d %d}",
			gotEp.Estimated, gotEp.PrevEstimated, gotEp.Baseline,
			refEp.Estimated, refEp.PrevEstimated, refEp.Baseline)
	}
	profilesEqual(t, gotProfile, refProfile)
}

// gateSink blocks the search stage's first event until released, so a
// test can hold a re-tune in flight while more callers pile in.
type gateSink struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateSink) Emit(e core.Event) {
	if e.Kind == core.StageStarted {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
}

// TestServeRetuneSingleflight proves concurrent re-tune requests
// deduplicate: callers that arrive while a round is in flight share
// its epoch instead of starting their own round.
func TestServeRetuneSingleflight(t *testing.T) {
	gate := &gateSink{entered: make(chan struct{}), release: make(chan struct{})}
	s, err := New(Options{
		Config:         serveConfig(),
		Shards:         2,
		WindowAccesses: 1 << 40,
		Events:         gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pos := 0
	if err := s.IngestBlocks(1, phaseBlocks(0, 2048, &pos)); err != nil {
		t.Fatal(err)
	}

	const callers = 5
	eps := make([]*Epoch, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := s.Retune(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			eps[i] = ep
		}(i)
	}
	<-gate.entered // one round is now held mid-search
	// Give the remaining callers time to join the in-flight call; any
	// that started its own round would block on the gate forever (the
	// sync.Once fires once), which the joint completion below rules out.
	time.Sleep(20 * time.Millisecond)
	close(gate.release)
	wg.Wait()

	if got := s.Stats().Retunes; got != 1 {
		t.Fatalf("%d concurrent callers executed %d rounds, want 1", callers, got)
	}
	for i, ep := range eps {
		if ep == nil || ep.Seq != eps[0].Seq {
			t.Fatalf("caller %d got epoch %+v, caller 0 got seq %d", i, ep, eps[0].Seq)
		}
	}
}

// TestServeIngestRetriesTransientFaults streams a wire-encoded ingest
// through a fault-injected reader: with a retry policy the server ends
// up with exactly the profile of a clean run.
func TestServeIngestRetriesTransientFaults(t *testing.T) {
	pos := 0
	var stream bytes.Buffer
	bw := NewBatchWriter(&stream)
	var all []uint64
	for b := 0; b < 10; b++ {
		batch := phaseBlocks(0, 300, &pos)
		all = append(all, batch...)
		if err := bw.WriteBatch(uint64(b%3), batch); err != nil {
			t.Fatal(err)
		}
	}

	newServer := func(policy faultio.Policy) *Server {
		s, err := New(Options{
			Config:         serveConfig(),
			Shards:         1,
			WindowAccesses: 1 << 40,
			Retry:          policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	faulty, err := faultio.NewReader(bytes.NewReader(stream.Bytes()), faultio.Schedule{
		Seed: 99, Transient: 0.3, MaxTransients: 40, ShortRead: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(faultio.Policy{MaxRetries: 50, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond})
	defer s.Close()
	if err := s.ServeIngest(context.Background(), faulty); err != nil {
		t.Fatalf("fault-injected ingest failed despite retry policy: %v", err)
	}
	got, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, got, profile.Build(all, 12, 64))

	// Without retries the same schedule must surface the transient.
	faulty2, err := faultio.NewReader(bytes.NewReader(stream.Bytes()), faultio.Schedule{
		Seed: 99, Transient: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s2 := newServer(faultio.Policy{})
	defer s2.Close()
	if err := s2.ServeIngest(context.Background(), faulty2); !errors.Is(err, xerr.ErrIO) {
		t.Fatalf("unguarded ingest: %v, want a wrapped ErrIO", err)
	}
}

// TestServeOptionsValidation covers the constructor's rejects.
func TestServeOptionsValidation(t *testing.T) {
	base := func() Options { return Options{Config: serveConfig()} }
	cases := []struct {
		name string
		mod  func(*Options)
		want error
	}{
		{"shards not a power of two", func(o *Options) { o.Shards = 3 }, xerr.ErrInvalidOptions},
		{"negative shards", func(o *Options) { o.Shards = -2 }, xerr.ErrInvalidOptions},
		{"oversized shards", func(o *Options) { o.Shards = maxShards * 2 }, xerr.ErrInvalidOptions},
		{"decay one", func(o *Options) { o.Decay = 1 }, xerr.ErrInvalidOptions},
		{"decay negative", func(o *Options) { o.Decay = -0.1 }, xerr.ErrInvalidOptions},
		{"negative queue depth", func(o *Options) { o.QueueDepth = -1 }, xerr.ErrInvalidOptions},
		{"bad geometry", func(o *Options) { o.Config.CacheBytes = 300 }, xerr.ErrInvalidGeometry},
		{"bad retry policy", func(o *Options) { o.Retry = faultio.Policy{MaxRetries: -2} }, xerr.ErrInvalidOptions},
		{"sketch backend", func(o *Options) { o.Config.Backend = "sketch" }, xerr.ErrInvalidOptions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base()
			tc.mod(&o)
			if _, err := New(o); !errors.Is(err, tc.want) {
				t.Fatalf("New = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestServeCheckpointMismatch pins that a checkpoint from one
// configuration refuses to seed a different one.
func TestServeCheckpointMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s, err := New(Options{Config: serveConfig(), Shards: 2, Decay: 0.25, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	if err := s.IngestBlocks(0, phaseBlocks(0, 512, &pos)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"different shard count", func(o *Options) { o.Shards = 4 }},
		{"different decay", func(o *Options) { o.Decay = 0.5 }},
		{"different geometry", func(o *Options) { o.Config.CacheBytes = 512 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Config: serveConfig(), Shards: 2, Decay: 0.25, CheckpointPath: path, Resume: true}
			tc.mod(&o)
			if _, err := New(o); !errors.Is(err, xerr.ErrProfileMismatch) {
				t.Fatalf("New = %v, want ErrProfileMismatch", err)
			}
		})
	}

	// The untouched configuration still resumes.
	s2, err := New(Options{Config: serveConfig(), Shards: 2, Decay: 0.25, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Ingested; got != 0 {
		t.Fatalf("resumed server counts %d ingested (counters are per-process)", got)
	}
	p, err := s2.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != 512 {
		t.Fatalf("resumed profile holds %d accesses, want 512", p.Accesses)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCheckpointCorruption flips single bits in a service
// checkpoint and pins the v2 damage semantics: a flip in the
// CRC-protected envelope (header, epoch, framing) fails the whole
// restore — there is no trustworthy frame to heal within — while a
// flip inside a per-shard blob localizes: the default resume heals it
// by cold-starting only that shard (reported through RestoreErrors and
// Stats.ColdShards), and Strict refuses with an error naming the
// shard.
func TestServeCheckpointCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s, err := New(Options{Config: serveConfig(), Shards: 1, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	if err := s.IngestBlocks(0, phaseBlocks(0, 256, &pos)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope ends where ckpt.Read stops consuming; the raw shard
	// blobs follow.
	br := bytes.NewReader(raw)
	if _, _, err := ckpt.Read(br, "XSV1"); err != nil {
		t.Fatal(err)
	}
	envLen := len(raw) - br.Len()
	if envLen >= len(raw) {
		t.Fatalf("checkpoint has no blob region (envelope %d of %d bytes)", envLen, len(raw))
	}

	corruptAt := func(off int) string {
		corrupted := append([]byte(nil), raw...)
		corrupted[off] ^= 0x10
		bad := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(bad, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		return bad
	}

	for _, off := range []int{5, envLen / 2, envLen - 3} {
		bad := corruptAt(off)
		if _, err := New(Options{Config: serveConfig(), Shards: 1, CheckpointPath: bad, Resume: true}); err == nil {
			t.Fatalf("envelope bit flip at offset %d restored cleanly", off)
		}
	}

	for _, off := range []int{envLen + (len(raw)-envLen)/2, len(raw) - 3} {
		bad := corruptAt(off)
		// Strict refuses, naming the shard.
		if _, err := New(Options{Config: serveConfig(), Shards: 1, CheckpointPath: bad, Resume: true, Strict: true}); err == nil {
			t.Fatalf("strict resume healed a blob flip at offset %d", off)
		} else if !strings.Contains(err.Error(), "shard 0") {
			t.Fatalf("strict refusal does not name the shard: %v", err)
		}
		// The default heals: shard 0 cold-starts, damage is reported.
		s2, err := New(Options{Config: serveConfig(), Shards: 1, CheckpointPath: bad, Resume: true})
		if err != nil {
			t.Fatalf("healing resume failed for blob flip at offset %d: %v", off, err)
		}
		damage := s2.RestoreErrors()
		if len(damage) != 1 || !strings.Contains(damage[0].Error(), "shard 0") {
			t.Fatalf("RestoreErrors = %v, want one error naming shard 0", damage)
		}
		if got := s2.Stats().ColdShards; got != 1 {
			t.Fatalf("ColdShards = %d, want 1", got)
		}
		p, err := s2.Profile()
		if err != nil {
			t.Fatal(err)
		}
		if p.Accesses != 0 {
			t.Fatalf("cold-started shard carries %d accesses", p.Accesses)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreForgedBlobLengthAllocatesLittle: a checkpoint header that
// claims a MaxPayload-sized shard blob with no blob behind it must be
// refused (Strict) having allocated about what arrived, not the 1 GiB
// the header claims.
func TestRestoreForgedBlobLengthAllocatesLittle(t *testing.T) {
	const n, cacheBlocks, m = 12, 64, 6
	var raw bytes.Buffer
	if err := ckpt.Write(&raw, serviceMagic, serviceVersion, func(b *bytes.Buffer) error {
		put := func(vs ...uint64) {
			for _, v := range vs {
				b.Write(binary.AppendUvarint(nil, v))
			}
		}
		put(n, cacheBlocks, m)
		b.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0))) // decay
		put(1, 0)                                                           // shards, rotations
		put(1, 0, 0, 0, 0)                                                  // epoch seq, window, estimated, previous, baseline
		b.WriteByte(0)                                                      // epoch flags
		for c := 0; c < m; c++ {
			put(uint64(gf2.Unit(c)))
		}
		put(ckpt.MaxPayload) // shard 0's blob length
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readServiceState(&raw, n, cacheBlocks, m, 0, profile.SampleOptions{}, 1, true)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("strict restore = %v, want refusal naming shard 0", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusal allocated %d bytes, want under 1 MiB", alloc)
	}
}
