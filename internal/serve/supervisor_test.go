package serve

// Tests for the §16 self-healing layers: error accumulation, shard
// supervision (restart from snapshot, circuit breaker, quorum
// escalation), overload shedding with per-client fairness, the
// re-tune watchdog and staleness guard, the periodic checkpoint
// cadence, and partial-checkpoint healing.

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xoridx/internal/ckpt"
	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

func TestServeErrAccumulatesCauses(t *testing.T) {
	s, err := New(Options{Config: serveConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if s.Err() != nil {
		t.Fatalf("fresh server Err = %v", s.Err())
	}
	first := errors.New("first cause")
	second := errors.New("second cause")
	s.fail(first)
	s.fail(second)
	s.fail(xerr.Canceled(canceledCtx())) // cancellation noise never accumulates

	got := s.Err()
	if !errors.Is(got, first) || !errors.Is(got, second) {
		t.Fatalf("Err = %v, want both causes matchable", got)
	}
	if errors.Is(got, xerr.ErrCanceled) {
		t.Fatalf("Err = %v, accumulated a cancellation", got)
	}
	// The first cause is primary: its message leads.
	if msg := got.Error(); !strings.HasPrefix(msg, "first cause") {
		t.Fatalf("Err message %q does not lead with the first cause", msg)
	}
	// The attachment list is capped, not unbounded.
	for i := 0; i < 10*maxAttachedCauses; i++ {
		s.fail(errors.New("flood"))
	}
	s.errMu.Lock()
	attached := len(s.errAttached)
	s.errMu.Unlock()
	if attached > maxAttachedCauses {
		t.Fatalf("%d attached causes, cap is %d", attached, maxAttachedCauses)
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestServeShardPanicRestartsFromSnapshot plants a panic mid-window
// and proves the service keeps running: the supervisor restarts the
// shard from its last recovery snapshot, the batches still queued
// behind the panic land in the restarted window, and a subsequent
// rotation publishes a valid epoch. Accesses between the snapshot and
// the panic are the bounded loss.
func TestServeShardPanicRestartsFromSnapshot(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var tripped atomic.Bool
	s, err := New(Options{
		Config:          serveConfig(),
		Shards:          1,
		WindowAccesses:  1 << 40, // no automatic retunes
		CheckpointEvery: 256,     // recovery snapshots at 300, 600, 900 (batch granularity)
		FaultHook: func(shard int, processed uint64) {
			if processed >= 450 && tripped.CompareAndSwap(false, true) {
				panic("chaos: planted shard fault")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ten batches of 100. The hook fires at processed=500, after the
	// snapshot taken at 300: the restart loses accesses 301-500 and
	// the queued batches 6-10 land in the restarted window.
	pos := 0
	for i := 0; i < 10; i++ {
		if err := s.IngestBlocks(7, phaseBlocks(0, 100, &pos)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.Profile() // queues behind every batch: a drain barrier
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != 800 {
		t.Fatalf("post-restart profile holds %d accesses, want 800 (300 snapshotted + 500 queued)", p.Accesses)
	}
	st := s.Stats()
	if st.Restarts != 1 || st.Quarantined != 0 {
		t.Fatalf("Stats = %+v, want exactly one restart and no quarantine", st)
	}
	if !errors.Is(s.Err(), xerr.ErrPanic) {
		t.Fatalf("Err = %v, want the recovered panic recorded", s.Err())
	}

	// The shard still rotates and publishes: the service is healthy.
	ep, err := s.Retune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq != 2 || ep.Estimated > ep.PrevEstimated {
		t.Fatalf("post-restart epoch = %+v, want seq 2 under the never-worse guard", ep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, baseline)
}

// persistentFault returns a hook that panics every time the shard
// processes at or past threshold — a fault that restarting cannot
// clear, which is what trips the circuit breaker.
func persistentFault(shard int, threshold uint64) func(int, uint64) {
	return func(sh int, processed uint64) {
		if sh == shard && processed >= threshold {
			panic("chaos: persistent shard fault")
		}
	}
}

// shardClients returns one client ID per shard, found by inverting
// ShardOf over small IDs.
func shardClients(t *testing.T, s *Server, shards int) []uint64 {
	t.Helper()
	out := make([]uint64, shards)
	remaining := shards
	for id := uint64(1); remaining > 0 && id < 1<<20; id++ {
		sh := s.ShardOf(id)
		if out[sh] == 0 {
			out[sh] = id
			remaining--
		}
	}
	if remaining != 0 {
		t.Fatalf("could not find a client for every one of %d shards", shards)
	}
	return out
}

func TestServeShardQuarantineAfterBudget(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Options{
		Config:           serveConfig(),
		Shards:           2,
		WindowAccesses:   1 << 40,
		MaxShardRestarts: 1,
		FaultHook:        persistentFault(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := shardClients(t, s, 2)

	// Two batches to shard 0: first panic restarts it, second trips
	// the breaker (budget 1) and quarantines. One of two shards down
	// is not a quorum loss, so the server stays up.
	pos := 0
	for i := 0; i < 2; i++ {
		if err := s.IngestBlocks(clients[0], phaseBlocks(0, 16, &pos)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "shard failure handling", func() bool {
			st := s.Stats()
			return st.Restarts >= uint64(i+1) || st.Quarantined > 0
		})
	}
	waitFor(t, 5*time.Second, "quarantine", func() bool { return s.Stats().Quarantined == 1 })

	if s.ctx.Err() != nil {
		t.Fatal("one quarantined shard of two escalated to stop-the-world")
	}
	if !errors.Is(s.Err(), ErrQuarantined) || !errors.Is(s.Err(), xerr.ErrPanic) {
		t.Fatalf("Err = %v, want quarantine and its panic cause", s.Err())
	}
	sh := s.ShardStats()[0]
	if !sh.Quarantined || sh.Restarts != 1 {
		t.Fatalf("shard 0 stats = %+v, want quarantined after 1 restart", sh)
	}

	// Traffic to the quarantined shard drops with accounting; the
	// healthy shard still ingests.
	if err := s.IngestBlocks(clients[0], phaseBlocks(0, 32, &pos)); err != nil {
		t.Fatalf("quarantined-shard ingest = %v, want accounted drop", err)
	}
	waitFor(t, 5*time.Second, "drop accounting", func() bool {
		return s.Stats().DroppedQuarantined >= 32
	})
	if err := s.IngestBlocks(clients[1], phaseBlocks(0, 32, &pos)); err != nil {
		t.Fatal(err)
	}
	p, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != 32 {
		t.Fatalf("healthy shard holds %d accesses, want 32", p.Accesses)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, baseline)
}

func TestServeQuorumEscalatesStopTheWorld(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Options{
		Config:           serveConfig(),
		Shards:           1,
		WindowAccesses:   1 << 40,
		MaxShardRestarts: 1,
		FaultHook:        persistentFault(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for i := 0; i < 2; i++ {
		if err := s.IngestBlocks(1, phaseBlocks(0, 16, &pos)); err != nil {
			break // server may already be stopping
		}
		waitFor(t, 5*time.Second, "shard failure handling", func() bool {
			st := s.Stats()
			return st.Restarts >= uint64(i+1) || st.Quarantined > 0
		})
	}
	// Losing the only shard is a quorum loss: stop the world.
	waitFor(t, 5*time.Second, "escalation", func() bool { return s.ctx.Err() != nil })
	if !errors.Is(s.Err(), ErrQuarantined) {
		t.Fatalf("Err = %v, want the quorum-loss quarantine recorded", s.Err())
	}
	if err := s.IngestBlocks(1, []uint64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-escalation ingest = %v, want ErrClosed", err)
	}
	s.Close()
	checkNoLeaks(t, baseline)
}

// TestServeRejectsNegativeMaxShardRestarts: supervision has no off
// switch. A negative budget is an invalid option, refused before any
// goroutine starts.
// breakerServer starts two shards checkpointing to path, with a
// restart budget of 1 and a shard 0 that fails on every batch taking it
// past 100 processed accesses. It feeds shard 0 a first batch of 100
// (a recovery snapshot when every is 100), shard 1 a healthy batch of
// 64, and shard 0 a batch of 30 that costs it its one restart: the
// next batch to shard 0 trips the breaker. It returns the server, one
// client per shard, shard 0's first batch and shard 1's batch.
func breakerServer(t *testing.T, path string, every uint64) (s *Server, clients []uint64, first, healthy []uint64) {
	t.Helper()
	s, err := New(Options{
		Config:           serveConfig(),
		Shards:           2,
		WindowAccesses:   1 << 40,
		CheckpointPath:   path,
		CheckpointEvery:  every,
		MaxShardRestarts: 1,
		FaultHook:        persistentFault(0, 101),
	})
	if err != nil {
		t.Fatal(err)
	}
	clients = shardClients(t, s, 2)
	pos := 0
	first = phaseBlocks(0, 100, &pos)
	healthy = phaseBlocks(1, 64, &pos)
	for _, in := range []struct {
		client uint64
		blocks []uint64
	}{{clients[0], first}, {clients[1], healthy}, {clients[0], phaseBlocks(0, 30, &pos)}} {
		if err := s.IngestBlocks(in.client, in.blocks); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "shard 0 restart", func() bool { return s.Stats().Restarts == 1 })
	return s, clients, first, healthy
}

// tripBreaker sends shard 0 the batch that quarantines it.
func tripBreaker(t *testing.T, s *Server, clients []uint64) {
	t.Helper()
	pos := 0
	if err := s.IngestBlocks(clients[0], phaseBlocks(0, 30, &pos)); err != nil {
		t.Fatal(err)
	}
}

// resumedProfile closes s, resumes a fresh server from its checkpoint
// at path and returns that server's merged profile.
func resumedProfile(t *testing.T, s *Server, path string) *profile.Profile {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Config: serveConfig(), Shards: 2, WindowAccesses: 1 << 40, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if damage := s2.RestoreErrors(); len(damage) != 0 {
		t.Fatalf("RestoreErrors = %v, want a clean resume", damage)
	}
	p, err := s2.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// builtProfile is the batch profile of the given shard streams, each
// profiled on its own LRU state and then merged, as the shards do.
func builtProfile(t *testing.T, streams ...[]uint64) *profile.Profile {
	t.Helper()
	want := profile.Build(streams[0], 12, 64)
	for _, blocks := range streams[1:] {
		if err := want.Merge(profile.Build(blocks, 12, 64)); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestServeCheckpointQuarantinedShardFromSnapshot: a checkpoint taken
// after shard 0 is quarantined stores shard 0's last recovery snapshot
// in its place, so a resume restores shard 0 to that snapshot.
func TestServeCheckpointQuarantinedShardFromSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s, clients, first, healthy := breakerServer(t, path, 100)
	tripBreaker(t, s, clients)
	waitFor(t, 5*time.Second, "quarantine", func() bool { return s.Stats().Quarantined == 1 })
	// The snapshot holds the first batch. It was taken at 100 processed
	// accesses, or by a periodic durable checkpoint after the restart
	// from it, which counts the 30 lost accesses as processed.
	if got := s.ShardStats()[0].SnapshotAccesses; got != 100 && got != 130 {
		t.Fatalf("shard 0 recovery snapshot at %d processed accesses, want 100 or 130", got)
	}
	if err := s.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, resumedProfile(t, s, path), builtProfile(t, first, healthy))
}

// TestServeCheckpointQuarantinedShardCold: the same without any
// recovery snapshot; shard 0 is checkpointed, and resumes, as an empty
// window.
func TestServeCheckpointQuarantinedShardCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s, clients, _, healthy := breakerServer(t, path, 0)
	tripBreaker(t, s, clients)
	waitFor(t, 5*time.Second, "quarantine", func() bool { return s.Stats().Quarantined == 1 })
	if err := s.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, resumedProfile(t, s, path), builtProfile(t, healthy))
}

// TestServeRequestsBehindTrippingBatch issues Profile and
// SaveCheckpoint right behind the batch that quarantines shard 0.
// Whether the quarantined shard's drainer answers them or they skip
// the shard, both return the healthy shard's data.
func TestServeRequestsBehindTrippingBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s, clients, _, healthy := breakerServer(t, path, 0)
	tripBreaker(t, s, clients)
	p, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	want := builtProfile(t, healthy)
	profilesEqual(t, p, want)
	if err := s.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "quarantine", func() bool { return s.Stats().Quarantined == 1 })
	profilesEqual(t, resumedProfile(t, s, path), want)
}

func TestServeRejectsNegativeMaxShardRestarts(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, budget := range []int{-1, -5} {
		s, err := New(Options{Config: serveConfig(), MaxShardRestarts: budget})
		if !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Fatalf("MaxShardRestarts=%d: New = %v, want ErrInvalidOptions", budget, err)
		}
		if s != nil {
			t.Fatalf("MaxShardRestarts=%d: New returned a server alongside its error", budget)
		}
	}
	checkNoLeaks(t, baseline)
}

// wedge blocks a shard goroutine until release is closed, so the tests
// can fill its queue deterministically. entered receives once when the
// shard is wedged.
func wedge(entered chan<- struct{}, release <-chan struct{}) func(int, uint64) {
	var once atomic.Bool
	return func(_ int, _ uint64) {
		if once.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-release
		}
	}
}

func TestServeOverloadShedsWithAccounting(t *testing.T) {
	baseline := runtime.NumGoroutine()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, err := New(Options{
		Config:         serveConfig(),
		Shards:         1,
		WindowAccesses: 1 << 40,
		QueueDepth:     1,
		Shed:           true,
		AdmissionWait:  -1, // shed immediately on a full queue
		FaultHook:      wedge(entered, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Batch 1 wedges the shard; batch 2 fills the queue; batch 3 must
	// shed with the typed overload error.
	if err := s.IngestBlocks(1, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := s.IngestBlocks(1, []uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	err = s.IngestBlocks(1, []uint64{7, 8, 9})
	if !errors.Is(err, xerr.ErrOverload) {
		t.Fatalf("full-queue ingest = %v, want ErrOverload", err)
	}
	st := s.Stats()
	if st.Shed != 3 || st.ShedBatches != 1 {
		t.Fatalf("Stats = %+v, want 3 shed accesses in 1 batch", st)
	}
	if st.Ingested != 6 {
		t.Fatalf("Ingested = %d, want only the 6 admitted accesses", st.Ingested)
	}
	close(release)
	p, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	// Conservation at the admission boundary: everything admitted —
	// and nothing shed — reached the profile.
	if p.Accesses != st.Ingested {
		t.Fatalf("profile holds %d accesses, admission counted %d", p.Accesses, st.Ingested)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, baseline)
}

func TestServeHotClientShedFirst(t *testing.T) {
	baseline := runtime.NumGoroutine()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, err := New(Options{
		Config:         serveConfig(),
		Shards:         1,
		WindowAccesses: 1 << 40,
		QueueDepth:     1,
		Shed:           true,
		AdmissionWait:  10 * time.Second, // patient — except for dominating clients
		FaultHook:      wedge(entered, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := make([]uint64, minFairnessSample)
	// The hot client's first batch wedges the shard and dominates the
	// admission accounting; its second fills the queue.
	if err := s.IngestBlocks(42, hot); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := s.IngestBlocks(42, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// The hot client is shed immediately — no 10 s admission wait —
	// because it already holds more than half the shard's admissions.
	start := time.Now()
	err = s.IngestBlocks(42, []uint64{3, 4, 5})
	if !errors.Is(err, xerr.ErrOverload) || !strings.Contains(err.Error(), "hot client") {
		t.Fatalf("hot-client ingest = %v, want immediate hot-client shed", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hot-client shed waited %v, want immediate", elapsed)
	}
	// A cold client is not shed out of hand: once the shard drains, it
	// gets in within the admission wait.
	close(release)
	if err := s.IngestBlocks(99, []uint64{6, 7}); err != nil {
		t.Fatalf("cold-client ingest = %v, want admission", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, baseline)
}

// TestServePeriodicCheckpointBoundedLoss pins the CheckpointEvery
// cadence: with no re-tune and no clean Close, a killed server still
// restores at least everything up to the last periodic checkpoint.
func TestServePeriodicCheckpointBoundedLoss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s, err := New(Options{
		Config:          serveConfig(),
		Shards:          1,
		WindowAccesses:  1 << 40,
		CheckpointPath:  path,
		CheckpointEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for i := 0; i < 10; i++ { // 1000 accesses; boundary crossings at 300, 600, 800
		if err := s.IngestBlocks(3, phaseBlocks(0, 100, &pos)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "periodic checkpoint", func() bool { return s.Stats().Checkpoints >= 1 })

	// Kill without Close: no final checkpoint is written.
	s.cancel()
	s.wg.Wait()

	s2, err := New(Options{
		Config: serveConfig(), Shards: 1, WindowAccesses: 1 << 40,
		CheckpointPath: path, Resume: true, CheckpointEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s2.Profile()
	if err != nil {
		t.Fatal(err)
	}
	// The first periodic write queued behind the batch that crossed
	// 256 (total 300), so at least 300 accesses survived the kill; the
	// granularity is whole batches.
	if p.Accesses < 300 || p.Accesses > 1000 || p.Accesses%100 != 0 {
		t.Fatalf("restored %d accesses, want a batch-aligned count in [300, 1000]", p.Accesses)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Without CheckpointEvery nothing periodic is written: the same
	// kill loses everything since boot.
	path2 := filepath.Join(t.TempDir(), "quiet.ckpt")
	s3, err := New(Options{
		Config: serveConfig(), Shards: 1, WindowAccesses: 1 << 40, CheckpointPath: path2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos = 0
	if err := s3.IngestBlocks(3, phaseBlocks(0, 1000, &pos)); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Profile(); err != nil { // drain
		t.Fatal(err)
	}
	if got := s3.Stats().Checkpoints; got != 0 {
		t.Fatalf("%d periodic checkpoints without CheckpointEvery", got)
	}
	s3.cancel()
	s3.wg.Wait()
	if _, err := os.Stat(path2); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file exists after kill without cadence (err=%v)", err)
	}
}

func TestServeRetuneDeadlineDegrades(t *testing.T) {
	s, err := New(Options{
		Config:         serveConfig(),
		Shards:         1,
		WindowAccesses: 1 << 40,
		RetuneDeadline: time.Nanosecond, // expires before the search starts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pos := 0
	if err := s.IngestBlocks(1, phaseBlocks(0, 512, &pos)); err != nil {
		t.Fatal(err)
	}
	ep, err := s.Retune(context.Background())
	if err != nil {
		t.Fatalf("Retune = %v, want a degraded publication", err)
	}
	if !ep.Degraded {
		t.Fatalf("epoch %+v not marked Degraded under an expired deadline", ep)
	}
	if ep.Estimated > ep.PrevEstimated {
		t.Fatalf("degraded epoch broke the never-worse guard: %d > %d", ep.Estimated, ep.PrevEstimated)
	}
	if got := s.Stats().DegradedRetunes; got != 1 {
		t.Fatalf("DegradedRetunes = %d, want 1", got)
	}
	// The watchdog degrades the round; it must not kill the server.
	if s.ctx.Err() != nil {
		t.Fatal("deadline expiry cancelled the server")
	}
}

func TestServeStaleAggregateNotPublished(t *testing.T) {
	s, err := New(Options{
		Config:           serveConfig(),
		Shards:           2,
		WindowAccesses:   1 << 40,
		MaxShardRestarts: 1,
		FaultHook:        persistentFault(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clients := shardClients(t, s, 2)
	pos := 0
	if err := s.IngestBlocks(clients[1], phaseBlocks(0, 512, &pos)); err != nil {
		t.Fatal(err)
	}
	// Quarantine shard 0 (half the shards: alive, but no quorum of
	// healthy traffic behind the aggregate).
	for i := 0; i < 2; i++ {
		if err := s.IngestBlocks(clients[0], phaseBlocks(0, 16, &pos)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "shard failure handling", func() bool {
			st := s.Stats()
			return st.Restarts >= uint64(i+1) || st.Quarantined > 0
		})
	}
	waitFor(t, 5*time.Second, "quarantine", func() bool { return s.Stats().Quarantined == 1 })

	before := s.Current()
	ep, err := s.Retune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq != before.Seq {
		t.Fatalf("staleness guard published epoch %d over %d", ep.Seq, before.Seq)
	}
	st := s.Stats()
	if st.StaleSkips != 1 {
		t.Fatalf("StaleSkips = %d, want 1", st.StaleSkips)
	}
	if st.Rotations != 0 {
		t.Fatalf("refused round still rotated %d windows", st.Rotations)
	}
}

func TestValidateAggregate(t *testing.T) {
	pos := 0
	blocks := phaseBlocks(0, 512, &pos)
	p := profile.Build(blocks, 12, 64)

	if err := validateAggregate(p, 12, 64); err != nil {
		t.Fatalf("healthy aggregate rejected: %v", err)
	}
	if err := validateAggregate(nil, 12, 64); !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("nil aggregate = %v, want ErrFormat", err)
	}
	if err := validateAggregate(p, 13, 64); !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("geometry mismatch = %v, want ErrProfileMismatch", err)
	}

	corrupt := *p
	corrupt.TotalPairs++
	if err := validateAggregate(&corrupt, 12, 64); !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("histogram/TotalPairs disagreement = %v, want ErrFormat", err)
	}

	counters := *p
	counters.Accesses = counters.Compulsory + counters.Capacity + counters.Candidates - 1
	if err := validateAggregate(&counters, 12, 64); !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("counter disagreement = %v, want ErrFormat", err)
	}

	// The sparse backend can carry what the flat table cannot: a
	// stored zero count and a vector wider than n.
	sparse := *p
	sparse.Table, sparse.Sparse = nil, map[uint64]uint64{}
	p.ForEachNonZero(func(v gf2.Vec, c uint64) { sparse.Sparse[uint64(v)] = c })
	if err := validateAggregate(&sparse, 12, 64); err != nil {
		t.Fatalf("healthy sparse aggregate rejected: %v", err)
	}
	zero := sparse
	zero.Sparse = maps.Clone(sparse.Sparse)
	for v := uint64(1); ; v++ {
		if _, ok := zero.Sparse[v]; !ok {
			zero.Sparse[v] = 0
			break
		}
	}
	if err := validateAggregate(&zero, 12, 64); !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("zero count = %v, want ErrFormat", err)
	}
	wide := sparse
	wide.Sparse = maps.Clone(sparse.Sparse)
	wide.Sparse[1<<12] = 1
	wide.TotalPairs++
	if err := validateAggregate(&wide, 12, 64); !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("vector wider than n = %v, want ErrFormat", err)
	}
}

// TestServePartialCheckpointCorruption damages exactly one shard's
// blob in a two-shard checkpoint: the healthy shard must resume with
// its data intact and only the damaged one cold-start (heal mode) or
// the whole restore refuse naming the shard (Strict).
func TestServePartialCheckpointCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s, err := New(Options{Config: serveConfig(), Shards: 2, WindowAccesses: 1 << 40, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	clients := shardClients(t, s, 2)
	pos := 0
	if err := s.IngestBlocks(clients[0], phaseBlocks(0, 300, &pos)); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestBlocks(clients[1], phaseBlocks(0, 200, &pos)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(raw)
	if _, _, err := ckpt.Read(br, "XSV1"); err != nil {
		t.Fatal(err)
	}
	envLen := len(raw) - br.Len()

	resume := func(p string, strict bool) (*Server, error) {
		return New(Options{
			Config: serveConfig(), Shards: 2, WindowAccesses: 1 << 40,
			CheckpointPath: p, Resume: true, Strict: strict,
		})
	}
	for name, mutate := range map[string]func([]byte) []byte{
		// The last blob is shard 1's; flip a bit near its end.
		"corrupt": func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b },
		// Cut into the last blob: shard 1's bytes run short.
		"truncate": func(b []byte) []byte { return b[:len(b)-8] },
	} {
		t.Run(name, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(bad, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if envLen >= len(raw)-8 {
				t.Fatal("mutation would touch the envelope, not a blob")
			}
			if _, err := resume(bad, true); err == nil || !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("strict resume = %v, want refusal naming shard 1", err)
			}
			s2, err := resume(bad, false)
			if err != nil {
				t.Fatalf("healing resume = %v", err)
			}
			damage := s2.RestoreErrors()
			if len(damage) != 1 || !strings.Contains(damage[0].Error(), "shard 1") ||
				!(errors.Is(damage[0], xerr.ErrFormat) || errors.Is(damage[0], xerr.ErrProfileMismatch)) {
				t.Fatalf("RestoreErrors = %v, want one typed error naming shard 1", damage)
			}
			if got := s2.Stats().ColdShards; got != 1 {
				t.Fatalf("ColdShards = %d, want 1", got)
			}
			p, err := s2.Profile()
			if err != nil {
				t.Fatal(err)
			}
			// Shard 0's 300 accesses survived; shard 1's 200 cold-started.
			if p.Accesses != 300 {
				t.Fatalf("healed restore holds %d accesses, want shard 0's 300", p.Accesses)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeResumeHealsOffWidthBackend splices into a two-shard
// checkpoint a CRC-valid shard 0 blob whose backend byte says sparse
// at n = 12, where the width selects the flat table. Restore must
// treat the blob as damage: the default resume cold-starts shard 0,
// reports it once and still re-tunes over shard 1's data; Strict
// refuses naming shard 0.
func TestServeResumeHealsOffWidthBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	opts := func(p string, strict bool) Options {
		return Options{Config: serveConfig(), Shards: 2, WindowAccesses: 1 << 40,
			CheckpointPath: p, Resume: true, Strict: strict}
	}
	s, err := New(opts(path, false))
	if err != nil {
		t.Fatal(err)
	}
	clients := shardClients(t, s, 2)
	pos := 0
	if err := s.IngestBlocks(clients[0], phaseBlocks(0, 300, &pos)); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestBlocks(clients[1], phaseBlocks(0, 200, &pos)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(raw)
	if _, _, err := ckpt.Read(br, "XSV1"); err != nil {
		t.Fatal(err)
	}
	start := len(raw) - br.Len()
	version, payload, err := ckpt.Read(br, "XWP1") // shard 0's blob
	if err != nil {
		t.Fatal(err)
	}
	end := len(raw) - br.Len()
	d := ckpt.NewDecoder(payload, "shard 0 blob")
	d.Uvarint("n")
	d.Uvarint("cacheBlocks")
	if d.Err() != nil || payload[len(payload)-d.Rem()] != 0 {
		t.Fatalf("shard 0 blob does not hold a flat backend byte after its geometry (%v)", d.Err())
	}
	payload[len(payload)-d.Rem()] = 1
	var forged bytes.Buffer
	if err := ckpt.Write(&forged, "XWP1", version, func(b *bytes.Buffer) error {
		b.Write(payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if forged.Len() != end-start {
		t.Fatalf("forged blob is %d bytes, the original %d", forged.Len(), end-start)
	}
	spliced := append(append(raw[:start:start], forged.Bytes()...), raw[end:]...)
	// Each resume gets its own copy: a healed server's Close rewrites
	// its checkpoint whole.
	bad := func() string {
		p := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(p, spliced, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	s2, err := New(opts(bad(), false))
	if err != nil {
		t.Fatalf("healing resume = %v", err)
	}
	if _, err := s2.Retune(context.Background()); err != nil {
		t.Fatalf("Retune after healing resume = %v", err)
	}
	damage := s2.RestoreErrors()
	if len(damage) != 1 || !strings.Contains(damage[0].Error(), "shard 0") || !errors.Is(damage[0], xerr.ErrFormat) {
		t.Fatalf("RestoreErrors = %v, want one wrapped ErrFormat naming shard 0", damage)
	}
	if got := s2.Stats().ColdShards; got != 1 {
		t.Fatalf("ColdShards = %d, want 1", got)
	}
	p, err := s2.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != 200 {
		t.Fatalf("healed restore holds %d accesses, want shard 1's 200", p.Accesses)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(opts(bad(), true)); err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("strict resume = %v, want refusal naming shard 0", err)
	}
}

// FuzzServiceCheckpointRestore throws arbitrary bytes at the service
// checkpoint reader: it must return an error or a consistent state,
// never panic or heal structural damage silently into a wrong epoch.
func FuzzServiceCheckpointRestore(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	s, err := New(Options{Config: serveConfig(), Shards: 2, WindowAccesses: 1 << 40, CheckpointPath: path})
	if err != nil {
		f.Fatal(err)
	}
	pos := 0
	if err := s.IngestBlocks(1, phaseBlocks(0, 256, &pos)); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, true)
	f.Add(seed, false)
	f.Add(seed[:len(seed)/2], false)
	f.Add([]byte("XSV1garbage"), false)

	f.Fuzz(func(t *testing.T, data []byte, strict bool) {
		st, err := readServiceState(bytes.NewReader(data), 12, 64, 6, 0, profile.SampleOptions{}, 2, strict)
		if err != nil {
			return
		}
		if st == nil || st.epoch == nil || st.epoch.Seq == 0 || len(st.shards) != 2 {
			t.Fatalf("accepted state is inconsistent: %+v", st)
		}
		for i, wb := range st.shards {
			if wb == nil {
				t.Fatalf("accepted state has nil shard %d", i)
			}
		}
		if strict && len(st.damage) != 0 {
			t.Fatalf("strict restore reported healed damage: %v", st.damage)
		}
	})
}
