// Package serve runs the paper's tune loop continuously: the batch
// pipeline (trace in, matrix out) becomes a long-running service that
// ingests block-access streams from many concurrent clients,
// accumulates windowed, exponentially decayed conflict profiles behind
// sharded ingest, re-optimizes the index matrix in the background, and
// publishes each result through an epoch-versioned atomic hot swap.
//
// Architecture (DESIGN.md §14, supervision in §16):
//
//	clients ──IngestBlocks/ServeIngest──▶ admission (bounded wait +
//	shedding) ──▶ supervised shard goroutines (one profile.Windowed
//	each, single-owner: share memory by communicating; panics restart
//	the shard from its last recovery snapshot, repeated failures
//	quarantine it) ──Rotate──▶ merged decayed aggregate ──SearchRound
//	(warm-started from the current H, under the re-tune watchdog)──▶
//	Epoch ──atomic.Pointer──▶ Current()
//
// Readers never block: Current is one atomic pointer load. Re-tunes
// never run twice concurrently: requests — from the window-boundary
// optimizer goroutine or from Retune callers — share one execution
// through a single-slot singleflight. Crash safety comes from the ckpt
// layer: the whole service state (every shard's windowed histograms
// plus the current epoch) checkpoints after each re-tune, every
// CheckpointEvery ingested accesses, and on Close, and restores with
// Options.Resume — healing damaged per-shard blobs unless Strict.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"xoridx/internal/core"
	"xoridx/internal/faultio"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// ErrClosed is returned by operations on a closed (or closing) server;
// it wraps xerr.ErrCanceled so callers' cancellation handling applies.
var ErrClosed = fmt.Errorf("serve: server closed: %w", xerr.ErrCanceled)

// ErrQuarantined marks a shard taken out of service by its circuit
// breaker (too many failures inside the restart window), and the
// stop-the-world escalation when a quorum of shards is lost. Err()
// results wrapping only this sentinel describe a degraded-but-alive
// service; the escalation error additionally cancels the server.
var ErrQuarantined = errors.New("serve: shard quarantined")

// Options configures a Server.
type Options struct {
	// Config is the tuning problem: cache geometry, function family,
	// search knobs. Workers is unused: a re-tune only searches, and
	// the search is sequential. Config's checkpoint fields are ignored (the serve layer has its
	// own checkpoint, see CheckpointPath below). Config.SampleK /
	// SampleSeed opt the shard windows into sampled profiling
	// (classification stays exact, only every K-th conflict candidate
	// is histogrammed); Config.Backend "sketch" is rejected — windowed
	// profiles need exact support enumeration to decay and merge.
	Config core.Config

	// Shards is the ingest fan-out: each shard owns one
	// profile.Windowed and a command channel, and clients hash to
	// shards by ID. Must be a power of two; 0 means 1.
	Shards int

	// WindowAccesses is the window length: every this many ingested
	// accesses (across all shards) the windows rotate and a re-tune
	// runs. 0 selects DefaultWindowAccesses.
	WindowAccesses uint64

	// Decay is the per-rotation aggregate decay in [0, 1): 0 keeps
	// every window forever (the batch-equivalent mode), larger values
	// forget stale phases faster.
	Decay float64

	// QueueDepth is each shard's command-channel buffer in batches; 0
	// selects 64.
	QueueDepth int

	// CheckpointPath, when non-empty, persists the full service state
	// there (atomically) after every re-tune and on Close; Resume
	// restores it on startup. A missing file is a cold start.
	CheckpointPath string
	Resume         bool

	// Strict refuses to Resume from a checkpoint with a damaged
	// per-shard blob (the error names the shard). The default heals:
	// healthy shards restore, damaged ones cold-start, and the
	// failures are reported through RestoreErrors and Stats.ColdShards.
	Strict bool

	// CheckpointEvery, in accesses, adds a periodic checkpoint cadence
	// on top of the per-re-tune and on-Close writes: every time the
	// server-wide ingested count crosses a multiple, a durable write of
	// CheckpointPath is triggered (asynchronously, coalescing), and
	// every time a shard's own processed count crosses a multiple the
	// shard refreshes the in-memory recovery snapshot its supervisor
	// restarts it from. 0 disables both periodic cadences: a crash
	// during a long quiet window then loses everything since the last
	// re-tune, and a panicking shard restarts cold.
	CheckpointEvery uint64

	// MaxShardRestarts is each shard's circuit-breaker budget: a shard
	// goroutine that panics is restarted from its last recovery
	// snapshot (cold when none) up to this many times over the
	// server's life; one more failure quarantines the shard. 0 selects
	// DefaultMaxShardRestarts; a negative value is rejected.
	MaxShardRestarts int

	// RestartBackoff paces shard restarts with capped exponential
	// backoff and deterministic jitter, so a hot-looping fault cannot
	// spin the supervisor. Only the delay fields are used (MaxRetries
	// is the circuit breaker's job, see MaxShardRestarts). The zero
	// value restarts immediately — the deterministic test
	// configuration.
	RestartBackoff faultio.Policy

	// Shed enables overload control on the ingest path: when a shard's
	// queue is full, IngestBlocks waits at most AdmissionWait for
	// space and then drops the batch with a wrapped xerr.ErrOverload,
	// counted per shard and per client; and a client already holding
	// more than half the accesses admitted to a contended shard since
	// the last rotation is shed immediately, so one hot client cannot
	// starve the rest. Disabled (the default), IngestBlocks blocks
	// until the queue drains — the pre-§16 backpressure behavior.
	Shed bool

	// AdmissionWait bounds how long an IngestBlocks call waits for
	// space on a full shard queue before shedding (Shed mode only).
	// 0 selects DefaultAdmissionWait; negative sheds immediately.
	AdmissionWait time.Duration

	// RetuneDeadline bounds each background re-tune round: a search
	// that exceeds it is cancelled and its anytime best-so-far
	// (Degraded) result is published through the usual §6 guard
	// instead of the abandoned full climb. 0 means no deadline.
	RetuneDeadline time.Duration

	// FaultHook, when non-nil, is called by each shard goroutine after
	// it processes an ingest batch, with the shard index and the
	// shard's cumulative processed-access count. It exists for
	// deterministic fault injection — internal/chaos schedules panics
	// and stalls through it — and must be fast in production use.
	FaultHook func(shard int, processed uint64)

	// Retry guards ServeIngest's transport reads: transient failures
	// (errors wrapping xerr.ErrIO) retry with capped exponential
	// backoff before the decoder ever sees them. Zero MaxRetries
	// disables the wrapper.
	Retry faultio.Policy

	// Events receives re-tune progress (core SearchRound events, with
	// Event.Round set to the rotation round). Shared across rounds;
	// must be fast and concurrency-safe. Optional.
	Events core.Sink
}

// DefaultWindowAccesses is the window length when Options leaves it 0.
const DefaultWindowAccesses = 1 << 18

// DefaultMaxShardRestarts is the per-shard circuit-breaker budget when
// Options leaves it 0.
const DefaultMaxShardRestarts = 3

// DefaultAdmissionWait is the bounded admission wait in Shed mode when
// Options leaves it 0.
const DefaultAdmissionWait = 2 * time.Millisecond

// maxShards bounds the fan-out (a shard costs a goroutine plus a
// Windowed; thousands of them is a configuration error, not a plan).
const maxShards = 1 << 12

// maxAttachedCauses caps how many secondary background failures Err
// accumulates behind the primary cause.
const maxAttachedCauses = 16

// minFairnessSample is how many accesses a shard must have admitted
// since the last rotation before the hot-client share rule applies —
// below it there is no meaningful notion of a dominating client.
const minFairnessSample = 1024

// Epoch is one published tuning result. Epochs are immutable;
// Current returns the latest and never blocks.
type Epoch struct {
	// Seq increases by one per publication; the boot epoch is 1.
	Seq uint64
	// Func is the index function readers should use.
	Func *hash.XOR
	// Estimated is Func's Eq. 4 estimate on the merged aggregate of
	// the round that published this epoch (0 for the boot epoch: no
	// profile existed yet).
	Estimated uint64
	// PrevEstimated is the previous epoch's function scored on that
	// same aggregate — the §6-style guard input: Estimated never
	// exceeds it, because a candidate that scores worse than the
	// incumbent is not published.
	PrevEstimated uint64
	// Baseline is conventional modulo indexing scored on that same
	// aggregate.
	Baseline uint64
	// Window is the rotation round that published this epoch.
	Window uint64
	// Changed reports whether Func's matrix differs from the previous
	// epoch's — a real hot swap rather than a confirmation.
	Changed bool
	// Degraded reports that the search behind this epoch was cut off
	// by the re-tune watchdog (RetuneDeadline) and the published
	// function is the anytime best-so-far rather than a converged
	// climb. It still passed the §6-style guard.
	Degraded bool
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Ingested  uint64 // accesses accepted into shard queues
	Batches   uint64 // ingest batches accepted
	Rotations uint64 // window rotations (== completed re-tune rounds)
	Retunes   uint64 // re-tune executions (deduplicated callers share one)
	Swaps     uint64 // epochs whose matrix changed
	EpochSeq  uint64 // Current().Seq
	Shards    int

	// Self-healing counters (§16).
	Restarts           uint64 // shard goroutine restarts after recovered panics
	Quarantined        int    // shards currently quarantined
	Shed               uint64 // accesses dropped by overload shedding
	ShedBatches        uint64 // batches dropped by overload shedding
	DroppedQuarantined uint64 // accesses dropped because their shard is quarantined
	Checkpoints        uint64 // durable checkpoint writes that completed
	StaleSkips         uint64 // re-tune rounds refused by the quarantined-majority staleness guard
	DegradedRetunes    uint64 // rounds published from a watchdog-degraded best-so-far search
	ColdShards         int    // shards cold-started by a damaged checkpoint blob on Resume
}

// ShardStats is one shard's view of the same counters.
type ShardStats struct {
	Shard              int
	Admitted           uint64 // accesses admitted into the queue
	Processed          uint64 // accesses applied to the windowed profile
	Shed               uint64 // accesses shed by overload control
	DroppedQuarantined uint64 // accesses refused at admission while quarantined
	DrainedQuarantined uint64 // admitted accesses lost from the queue under quarantine
	Restarts           uint64 // supervisor restarts
	Quarantined        bool
	SnapshotAccesses   uint64 // processed count covered by the last recovery snapshot
}

// shardCmd is one message to a shard goroutine: either blocks to
// ingest, or a request req the shard runs on its own Windowed and
// answers on reply. Reply channels have capacity 1 so the shard never
// blocks on its reply.
type shardCmd struct {
	blocks []uint64
	req    func(*shard) shardReply
	reply  chan<- shardReply
}

// shardReply is a shard's answer to a request: a profile, a
// serialized Windowed, or the error that kept the shard from
// answering (ErrQuarantined or ErrPanic when it could not run the
// request at all).
type shardReply struct {
	p    *profile.Profile
	blob []byte
	err  error
}

// shardSnap is one in-memory recovery snapshot: the serialized
// Windowed plus the processed-access count it covers.
type shardSnap struct {
	data      []byte
	processed uint64
}

type shard struct {
	ch chan shardCmd
	wb *profile.Windowed // owned by the shard goroutine while it runs
	i  int

	admitted    atomic.Uint64
	processed   atomic.Uint64
	shed        atomic.Uint64
	shedBatches atomic.Uint64
	dropped     atomic.Uint64
	drained     atomic.Uint64
	restarts    atomic.Uint64
	quarantined atomic.Bool

	snap      atomic.Pointer[shardSnap]
	sinceSnap uint64 // shard-goroutine-local cadence counter

	// Per-client admission accounting since the last rotation (Shed
	// mode only; guarded by acctMu on the admission path).
	acctMu    sync.Mutex
	acct      map[uint64]uint64
	acctTotal uint64
}

// Server is the long-running tuning service. Create with New, stop
// with Close. All methods are safe for concurrent use.
type Server struct {
	opt       Options
	cfg       core.Config // normalized
	n, m      int
	shards    []*shard
	shardMask uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	cur       atomic.Pointer[Epoch]
	fl        flight
	ckptMu    sync.Mutex // serializes checkpoint writes
	closeOnce sync.Once
	closed    atomic.Bool
	closeErr  error

	// Optimizer and checkpoint wakes, at window and CheckpointEvery
	// boundaries of the ingested count.
	wake     chan struct{}
	ckptWake chan struct{}

	// Counters.
	ingested    atomic.Uint64
	batches     atomic.Uint64
	rotations   atomic.Uint64
	retunes     atomic.Uint64
	swaps       atomic.Uint64
	checkpoints atomic.Uint64
	staleSkips  atomic.Uint64
	degraded    atomic.Uint64
	nQuarantine atomic.Int32

	// Background failures: first cause primary, later causes attached
	// (capped) — a shard panic that triggers secondary cancellations
	// must never be masked by them.
	errMu       sync.Mutex
	errPrimary  error
	errAttached []error

	restoreErrs []error // per-shard blob damage healed during Resume
}

// New validates the options, restores a checkpoint when Resume is set
// (a missing file is a cold start; a damaged per-shard blob cold-starts
// that shard unless Strict), and starts the supervised shard and
// optimizer goroutines. The boot epoch — available from Current
// immediately — is the conventional modulo function at Seq 1 unless a
// checkpoint supplied a later one.
func New(opt Options) (*Server, error) {
	cfg, err := opt.Config.Normalized()
	if err != nil {
		return nil, err
	}
	// The serve layer owns checkpointing; the pipeline's per-stage
	// checkpoint files must not fight over the same path.
	cfg.CheckpointPath, cfg.Resume = "", false
	if opt.Shards == 0 {
		opt.Shards = 1
	}
	if opt.Shards < 0 || opt.Shards > maxShards || opt.Shards&(opt.Shards-1) != 0 {
		return nil, fmt.Errorf("serve: Shards %d not a power of two in [1, %d]: %w",
			opt.Shards, maxShards, xerr.ErrInvalidOptions)
	}
	if opt.WindowAccesses == 0 {
		opt.WindowAccesses = DefaultWindowAccesses
	}
	if err := profile.ValidateDecay(opt.Decay); err != nil {
		return nil, err
	}
	if cfg.Backend == "sketch" {
		return nil, fmt.Errorf("serve: windowed profiling does not support the sketch backend: %w",
			xerr.ErrInvalidOptions)
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 64
	}
	if opt.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: negative QueueDepth: %w", xerr.ErrInvalidOptions)
	}
	if opt.MaxShardRestarts < 0 {
		return nil, fmt.Errorf("serve: negative MaxShardRestarts: %w", xerr.ErrInvalidOptions)
	}
	if opt.MaxShardRestarts == 0 {
		opt.MaxShardRestarts = DefaultMaxShardRestarts
	}
	if opt.AdmissionWait == 0 {
		opt.AdmissionWait = DefaultAdmissionWait
	}
	if opt.RetuneDeadline < 0 {
		return nil, fmt.Errorf("serve: negative RetuneDeadline: %w", xerr.ErrInvalidOptions)
	}
	if err := opt.Retry.Validate(); err != nil {
		return nil, err
	}
	if err := opt.RestartBackoff.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		opt: opt, cfg: cfg,
		n: cfg.AddrBits, m: cfg.SetBits(),
		shardMask: uint64(opt.Shards - 1),
		wake:      make(chan struct{}, 1),
		ckptWake:  make(chan struct{}, 1),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	var restored *serviceState
	if opt.Resume && opt.CheckpointPath != "" {
		restored, err = loadServiceState(opt.CheckpointPath, s.n, cfg.CacheBytes/cfg.BlockBytes, s.m,
			opt.Decay, s.sampling(), opt.Shards, opt.Strict)
		if err != nil {
			return nil, err
		}
	}
	s.shards = make([]*shard, opt.Shards)
	for i := range s.shards {
		var wb *profile.Windowed
		if restored != nil {
			wb = restored.shards[i]
		} else {
			wb, err = s.newWindowed()
			if err != nil {
				return nil, err
			}
		}
		s.shards[i] = &shard{ch: make(chan shardCmd, opt.QueueDepth), wb: wb, i: i}
	}
	if restored != nil {
		s.cur.Store(restored.epoch)
		s.rotations.Store(restored.rotations)
		s.restoreErrs = restored.damage
	} else {
		s.cur.Store(&Epoch{Seq: 1, Func: hash.Modulo(s.n, s.m)})
	}
	for i, sh := range s.shards {
		s.wg.Add(1)
		go s.superviseShard(i, sh)
	}
	s.wg.Add(1)
	go s.optimizer()
	if opt.CheckpointEvery > 0 && opt.CheckpointPath != "" {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// Current returns the latest published epoch: one atomic load, never
// nil, never blocking — regardless of any re-tune, checkpoint or
// ingest in flight.
func (s *Server) Current() *Epoch { return s.cur.Load() }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Ingested:        s.ingested.Load(),
		Batches:         s.batches.Load(),
		Rotations:       s.rotations.Load(),
		Retunes:         s.retunes.Load(),
		Swaps:           s.swaps.Load(),
		EpochSeq:        s.cur.Load().Seq,
		Shards:          len(s.shards),
		Quarantined:     int(s.nQuarantine.Load()),
		Checkpoints:     s.checkpoints.Load(),
		StaleSkips:      s.staleSkips.Load(),
		DegradedRetunes: s.degraded.Load(),
		ColdShards:      len(s.restoreErrs),
	}
	for _, sh := range s.shards {
		st.Restarts += sh.restarts.Load()
		st.Shed += sh.shed.Load()
		st.ShedBatches += sh.shedBatches.Load()
		st.DroppedQuarantined += sh.dropped.Load()
	}
	return st
}

// ShardStats snapshots every shard's counters, indexed by shard.
func (s *Server) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStats{
			Shard:              i,
			Admitted:           sh.admitted.Load(),
			Processed:          sh.processed.Load(),
			Shed:               sh.shed.Load(),
			DroppedQuarantined: sh.dropped.Load(),
			DrainedQuarantined: sh.drained.Load(),
			Restarts:           sh.restarts.Load(),
			Quarantined:        sh.quarantined.Load(),
		}
		if snap := sh.snap.Load(); snap != nil {
			out[i].SnapshotAccesses = snap.processed
		}
	}
	return out
}

// RestoreErrors reports the per-shard checkpoint damage healed during
// a non-Strict Resume: one error per cold-started shard, each naming
// the shard and wrapping xerr.ErrFormat or xerr.ErrProfileMismatch.
// Empty on a clean resume or a cold start.
func (s *Server) RestoreErrors() []error {
	return append([]error(nil), s.restoreErrs...)
}

// ShardOf reports which shard a client's traffic lands on — the
// targeting primitive for operators and the chaos harness.
func (s *Server) ShardOf(clientID uint64) int {
	return int(splitmix(clientID) & s.shardMask)
}

// Err returns the accumulated background failure, or nil. The first
// cause is primary (its message leads and it is first in the joined
// chain); up to maxAttachedCauses later causes — which would have been
// masked before §16 — are attached, so errors.Is matches any of them.
func (s *Server) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.errPrimary == nil {
		return nil
	}
	if len(s.errAttached) == 0 {
		return s.errPrimary
	}
	return errors.Join(append([]error{s.errPrimary}, s.errAttached...)...)
}

func (s *Server) fail(err error) {
	if err == nil || errors.Is(err, xerr.ErrCanceled) {
		return
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.errPrimary == nil {
		s.errPrimary = err
		return
	}
	if len(s.errAttached) < maxAttachedCauses {
		s.errAttached = append(s.errAttached, err)
	}
}

// splitmix is the splitmix64 finalizer: adjacent client IDs spread
// across shards.
func splitmix(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// shardFor maps a client to its shard.
func (s *Server) shardFor(clientID uint64) *shard {
	return s.shards[splitmix(clientID)&s.shardMask]
}

// IngestBlocks feeds one client's block accesses into its shard. The
// batch is copied, so the caller may reuse the slice. The fast path is
// one channel send. On a full shard queue the behavior is the
// admission policy's: without Shed it blocks until space (the
// backpressure mode); with Shed it waits at most AdmissionWait and
// then drops the batch with a wrapped xerr.ErrOverload, counted in
// Stats.Shed. Traffic to a quarantined shard is dropped with
// accounting (Stats.DroppedQuarantined) and returns nil — the client
// is healthy, the shard is not. Returns ErrClosed once the server is
// closing.
func (s *Server) IngestBlocks(clientID uint64, blocks []uint64) error {
	if len(blocks) == 0 {
		return nil
	}
	if s.closed.Load() {
		return ErrClosed
	}
	sh := s.shardFor(clientID)
	n := uint64(len(blocks))
	if sh.quarantined.Load() {
		if s.ctx.Err() != nil {
			return ErrClosed // quarantine escalated to stop-the-world
		}
		sh.dropped.Add(n)
		return nil
	}
	cmd := shardCmd{blocks: append([]uint64(nil), blocks...)}
	if s.opt.Shed {
		if err := s.admit(sh, clientID, cmd); err != nil {
			return err
		}
	} else {
		select {
		case sh.ch <- cmd:
		case <-s.ctx.Done():
			return ErrClosed
		}
	}
	sh.admitted.Add(n)
	s.batches.Add(1)
	s.noteAccesses(n)
	return nil
}

// admit is the Shed-mode admission path: fast-path send, hot-client
// fairness, bounded wait, accounted drop.
func (s *Server) admit(sh *shard, clientID uint64, cmd shardCmd) error {
	n := uint64(len(cmd.blocks))
	select {
	case sh.ch <- cmd:
		sh.noteAdmitted(clientID, n)
		return nil
	default:
	}
	// The queue is contended. A client already holding more than half
	// of what this shard admitted since the last rotation is shed
	// first — it does not get to consume the bounded wait the other
	// clients need.
	if sh.clientDominates(clientID) {
		return s.shedBatch(sh, clientID, n, "hot client")
	}
	wait := s.opt.AdmissionWait
	if wait <= 0 {
		return s.shedBatch(sh, clientID, n, "queue full")
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case sh.ch <- cmd:
		sh.noteAdmitted(clientID, n)
		return nil
	case <-t.C:
		return s.shedBatch(sh, clientID, n, "admission wait expired")
	case <-s.ctx.Done():
		return ErrClosed
	}
}

// shedBatch accounts one dropped batch and returns the typed overload
// error.
func (s *Server) shedBatch(sh *shard, clientID uint64, n uint64, why string) error {
	sh.shed.Add(n)
	sh.shedBatches.Add(1)
	return fmt.Errorf("serve: shard %d shedding %d accesses from client %d (%s): %w",
		sh.i, n, clientID, why, xerr.ErrOverload)
}

// noteAdmitted records a client's admitted accesses for the fairness
// rule. Reset at every rotation.
func (sh *shard) noteAdmitted(clientID uint64, n uint64) {
	sh.acctMu.Lock()
	if sh.acct == nil {
		sh.acct = make(map[uint64]uint64)
	}
	sh.acct[clientID] += n
	sh.acctTotal += n
	sh.acctMu.Unlock()
}

// clientDominates reports whether clientID holds more than half of the
// shard's admitted accesses since the last rotation (once there is a
// meaningful sample).
func (sh *shard) clientDominates(clientID uint64) bool {
	sh.acctMu.Lock()
	defer sh.acctMu.Unlock()
	return sh.acctTotal >= minFairnessSample && sh.acct[clientID]*2 > sh.acctTotal
}

// resetAcct starts a fresh fairness accounting window.
func (sh *shard) resetAcct() {
	sh.acctMu.Lock()
	sh.acct = nil
	sh.acctTotal = 0
	sh.acctMu.Unlock()
}

// noteAccesses counts n accepted accesses and, whenever the ingested
// total crosses a multiple of WindowAccesses, wakes the optimizer; a
// crossed multiple of CheckpointEvery triggers the periodic durable
// checkpoint the same way. Each adder sees its own range of the total,
// so however many ingesters cross together, exactly one of them sees
// each boundary; the channels hold one pending wake, and coalescing
// concurrent boundaries is exactly the singleflight semantics the
// re-tune wants anyway.
func (s *Server) noteAccesses(n uint64) {
	total := s.ingested.Add(n)
	crossed := func(every uint64) bool { return (total-n)/every != total/every }
	if every := s.opt.CheckpointEvery; every > 0 && s.opt.CheckpointPath != "" && crossed(every) {
		select {
		case s.ckptWake <- struct{}{}:
		default:
		}
	}
	if crossed(s.opt.WindowAccesses) {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// ServeIngest decodes one client connection's ingest stream (wire.go
// format) and feeds every frame into the shards, until the stream ends
// (nil), the context ends, or a frame is corrupt. With a Retry policy
// configured, transient transport errors retry below the decoder. A
// frame shed by overload control is dropped — already accounted by the
// server — and the stream stays up: one overloaded shard must not cost
// a client its connection.
func (s *Server) ServeIngest(ctx context.Context, r io.Reader) error {
	if s.opt.Retry.MaxRetries > 0 {
		rr, err := faultio.NewRetryReader(ctx, r, s.opt.Retry)
		if err != nil {
			return err
		}
		r = rr
	}
	d := NewBatchReader(r)
	var buf []uint64
	for {
		if err := xerr.Check(ctx); err != nil {
			return err
		}
		clientID, blocks, err := d.Next(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		buf = blocks
		if err := s.IngestBlocks(clientID, blocks); err != nil {
			if errors.Is(err, xerr.ErrOverload) {
				continue
			}
			return err
		}
	}
}

// Retune runs one re-tune round — rotate every healthy shard's window,
// merge the decayed aggregates, search warm-started from the current H
// under the watchdog, publish the winner — and returns the resulting
// epoch. Concurrent callers (including the background optimizer)
// deduplicate: all of them get the same epoch from one execution. ctx
// bounds this caller's wait only; the round itself runs on the
// server's lifetime context so one impatient caller cannot abort a
// shared round.
func (s *Server) Retune(ctx context.Context) (*Epoch, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.fl.Do(ctx, s.retune)
}

// retune is the singleflight-protected round body.
func (s *Server) retune() (*Epoch, error) {
	// Staleness guard, checked before any shard rotates: an aggregate
	// assembled while half or more of the shards are quarantined
	// reflects a minority of the traffic, and an H tuned to it must
	// never hot-swap in. The round is refused outright — no rotation,
	// no decay, no publication — and the incumbent stays.
	if q := int(s.nQuarantine.Load()); q > 0 && q*2 >= len(s.shards) {
		s.staleSkips.Add(1)
		return s.cur.Load(), nil
	}
	merged, err := s.rotateAndMerge()
	if err != nil {
		return nil, err
	}
	// Aggregate self-validation: a corrupted shard histogram must be
	// caught here, before any search result derived from it can reach
	// the published H.
	if err := validateAggregate(merged, s.n, s.cfg.CacheBytes/s.cfg.BlockBytes); err != nil {
		return nil, err
	}
	round := s.rotations.Add(1)
	prev := s.cur.Load()

	// Re-tune watchdog: the search runs under RetuneDeadline (when
	// set) on top of the server's lifetime context.
	sctx := s.ctx
	cancel := context.CancelFunc(func() {})
	if d := s.opt.RetuneDeadline; d > 0 {
		sctx, cancel = context.WithTimeout(s.ctx, d)
	}
	pl := core.Pipeline{Config: s.cfg, Events: s.opt.Events}
	sres, serr := pl.SearchRound(sctx, merged, prev.Func.Matrix(), int(round))
	cancel()
	degradedRound := false
	if serr != nil {
		// Deadline expiry with a usable anytime result degrades the
		// round instead of failing it; a server shutdown (or a search
		// with nothing to offer) still propagates.
		if s.ctx.Err() == nil && errors.Is(serr, context.DeadlineExceeded) &&
			sres.Degraded && sres.Matrix.Cols != nil {
			degradedRound = true
			s.degraded.Add(1)
		} else {
			return nil, serr
		}
	}
	// §6-style publish guard: score the incumbent on the same
	// aggregate and never swap to a worse candidate. The warm-started
	// general-XOR climb cannot lose to its own starting point, but
	// cold-searched families and watchdog-degraded rounds can — the
	// guard is what makes the anytime fallback safe to publish.
	prevEst := merged.EstimateMatrix(prev.Func.Matrix())
	ep := &Epoch{
		Seq:           prev.Seq + 1,
		Window:        round,
		PrevEstimated: prevEst,
		Baseline:      sres.Baseline,
		Degraded:      degradedRound,
	}
	if sres.Estimated <= prevEst {
		f, err := hash.NewXOR(sres.Matrix)
		if err != nil {
			return nil, err
		}
		ep.Func = f
		ep.Estimated = sres.Estimated
		ep.Changed = !sres.Matrix.Equal(prev.Func.Matrix())
	} else {
		ep.Func = prev.Func
		ep.Estimated = prevEst
	}
	s.cur.Store(ep)
	s.retunes.Add(1)
	if ep.Changed {
		s.swaps.Add(1)
	}
	if s.opt.CheckpointPath != "" {
		if err := s.SaveCheckpoint(); err != nil {
			// The epoch is published and live; losing one checkpoint
			// write degrades crash-freshness, not correctness.
			return ep, err
		}
	}
	return ep, nil
}

// validateAggregate re-checks the invariants a merged aggregate must
// satisfy before it may steer a publication: the histogram must sum
// exactly to TotalPairs, every vector must fit the address width, the
// classified counters must not exceed the access count, and the
// geometry must match the server's. Violations are wrapped
// xerr.ErrFormat — corrupt content, not a transient condition.
func validateAggregate(p *profile.Profile, n, cacheBlocks int) error {
	if p == nil {
		return fmt.Errorf("serve: re-tune aggregate missing: %w", xerr.ErrFormat)
	}
	if p.N != n || p.CacheBlocks != cacheBlocks {
		return fmt.Errorf("serve: re-tune aggregate geometry (n=%d, %d blocks) does not match server (n=%d, %d blocks): %w",
			p.N, p.CacheBlocks, n, cacheBlocks, xerr.ErrProfileMismatch)
	}
	if sum := p.Compulsory + p.Capacity + p.Candidates; sum > p.Accesses {
		return fmt.Errorf("serve: re-tune aggregate counters disagree (%d+%d+%d > %d accesses): %w",
			p.Compulsory, p.Capacity, p.Candidates, p.Accesses, xerr.ErrFormat)
	}
	// The search copies the support right after; this pass reads it in
	// place and keeps the first fault it meets.
	var sum uint64
	var bad error
	p.ForEachNonZero(func(v gf2.Vec, c uint64) {
		switch {
		case bad != nil:
		case v > gf2.Mask(n):
			bad = fmt.Errorf("serve: re-tune aggregate vector %#x exceeds %d bits: %w", uint64(v), n, xerr.ErrFormat)
		case c == 0:
			bad = fmt.Errorf("serve: re-tune aggregate carries a zero count: %w", xerr.ErrFormat)
		}
		sum += c
	})
	if bad != nil {
		return bad
	}
	if sum != p.TotalPairs {
		return fmt.Errorf("serve: re-tune aggregate histogram sums to %d pairs, counter says %d: %w",
			sum, p.TotalPairs, xerr.ErrFormat)
	}
	return nil
}

// sampling is the shard windows' sampled-profiling configuration,
// from the tuning Config.
func (s *Server) sampling() profile.SampleOptions {
	return profile.SampleOptions{K: s.cfg.SampleK, Seed: s.cfg.SampleSeed}
}

// newWindowed cold-starts one shard's windowed profile with the
// server's geometry, decay and sampling configuration.
func (s *Server) newWindowed() (*profile.Windowed, error) {
	return profile.NewWindowed(s.n, s.cfg.CacheBytes/s.cfg.BlockBytes, s.opt.Decay, s.sampling())
}

// rotateAndMerge rotates every healthy shard's window, with a fresh
// fairness accounting window, and merges the decayed per-shard
// aggregates into one profile for the search.
func (s *Server) rotateAndMerge() (*profile.Profile, error) {
	replies, err := s.ask(func(sh *shard) shardReply {
		sh.wb.Rotate()
		sh.resetAcct()
		return shardReply{p: sh.wb.Aggregate()}
	})
	if err != nil {
		return nil, err
	}
	return merge(replies, "serve: no healthy shard contributed to the rotation")
}

// Profile returns the merged live aggregate across all healthy shards
// — the rotated windows plus each live window, without rotating
// anything. With Decay 0, no quarantined shards and however many
// rotations it equals a batch profile.Build over every access ingested
// so far.
func (s *Server) Profile() (*profile.Profile, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	replies, err := s.ask(func(sh *shard) shardReply { return shardReply{p: sh.wb.Snapshot()} })
	if err != nil {
		return nil, ErrClosed
	}
	return merge(replies, "serve: no healthy shard to snapshot")
}

// ask sends req to every shard that is not quarantined — pipelined:
// all requests enqueue before any reply is awaited — and returns every
// shard's reply, indexed by shard. A shard quarantined up front
// answers ErrQuarantined; one that cannot run the request answers
// through replyFailed. A server shutdown returns a wrapped
// xerr.ErrCanceled.
func (s *Server) ask(req func(*shard) shardReply) ([]shardReply, error) {
	out := make([]shardReply, len(s.shards))
	replies := make([]chan shardReply, len(s.shards))
	for i, sh := range s.shards {
		if sh.quarantined.Load() {
			out[i].err = fmt.Errorf("serve: shard %d quarantined: %w", i, ErrQuarantined)
			continue
		}
		replies[i] = make(chan shardReply, 1)
		select {
		case sh.ch <- shardCmd{req: req, reply: replies[i]}:
		case <-s.ctx.Done():
			return nil, xerr.Canceled(s.ctx)
		}
	}
	for i, rc := range replies {
		if rc == nil {
			continue
		}
		select {
		case out[i] = <-rc:
		case <-s.ctx.Done():
			return nil, xerr.Canceled(s.ctx)
		}
	}
	return out, nil
}

// merge merges the profiles in replies. A shard that could not answer
// is skipped — its supervisor is on it; with no profile to merge the
// result is the none message wrapping ErrQuarantined.
func merge(replies []shardReply, none string) (*profile.Profile, error) {
	var merged *profile.Profile
	for _, r := range replies {
		if r.p == nil {
			continue
		}
		if merged == nil {
			merged = r.p
		} else if err := merged.Merge(r.p); err != nil {
			return nil, err
		}
	}
	if merged == nil {
		return nil, fmt.Errorf("%s: %w", none, ErrQuarantined)
	}
	return merged, nil
}

// optimizer is the background goroutine that turns window boundaries
// into re-tune rounds. Failures are recorded (Err) and do not stop the
// loop: a canceled search this round must not kill the service.
func (s *Server) optimizer() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		}
		if _, err := s.fl.Do(s.ctx, s.retune); err != nil {
			s.fail(err)
		}
	}
}

// checkpointLoop is the background goroutine behind the periodic
// durable checkpoint cadence: CheckpointEvery boundary crossings wake
// it (coalescing — a slow write absorbs every boundary it spans), and
// each wake writes one full service checkpoint. Failures are recorded
// and do not stop the loop.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.ckptWake:
		}
		if err := s.SaveCheckpoint(); err != nil {
			s.fail(err)
		}
	}
}

// Close stops the server: no new ingest is accepted, a final
// checkpoint is written (when configured), and every goroutine is
// joined. Idempotent; concurrent calls return the first Close's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		if s.opt.CheckpointPath != "" && s.ctx.Err() == nil {
			// Shards are still running, so their snapshot requests drain
			// normally behind any queued ingest.
			s.closeErr = s.SaveCheckpoint()
		}
		s.cancel()
		s.wg.Wait()
	})
	return s.closeErr
}
