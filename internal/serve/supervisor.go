package serve

// Shard supervision (DESIGN.md §16): each shard goroutine runs under a
// supervisor that converts panics into restarts instead of process
// loss. A failed shard restarts from its last in-memory recovery
// snapshot (cold when none exists), paced by the RestartBackoff
// policy; a shard that keeps failing trips its circuit breaker and is
// quarantined — its supervisor degrades into a drainer that keeps the
// command channel flowing (so producers never wedge) while dropping
// the shard's traffic with accounting. Only the loss of a strict
// majority of shards escalates to the pre-§16 stop-the-world.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

// superviseShard owns shard i's goroutine lifecycle: run until clean
// shutdown, restart on panic, quarantine past the restart budget.
func (s *Server) superviseShard(i int, sh *shard) {
	defer s.wg.Done()
	// Per-shard deterministic jitter stream: shards do not thunder
	// back in phase, and a fixed seed reproduces the schedule.
	rng := rand.New(rand.NewSource(s.opt.RestartBackoff.JitterSeed ^ int64(i+1)*0x9e3779b9))
	failures := 0
	for {
		err := s.runShardOnce(sh)
		if err == nil {
			return // server shutdown
		}
		s.fail(err)
		failures++
		if failures > s.opt.MaxShardRestarts {
			s.quarantineShard(i, sh, err)
			if s.ctx.Err() == nil {
				s.drainQuarantined(sh)
			}
			return
		}
		sh.restarts.Add(1)
		s.restoreShard(sh)
		if d := s.opt.RestartBackoff.Backoff(failures, rng); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-s.ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
	}
}

// runShardOnce is one supervised incarnation of the shard goroutine:
// the only code that touches its Windowed while it runs, so the ingest
// hot path needs no locks at all (share memory by communicating). A
// recovered panic returns as a wrapped xerr.ErrPanic — after replying
// to any in-flight request, so a requester waiting on this shard
// observes the failure instead of hanging. Returns nil only
// on server shutdown.
func (s *Server) runShardOnce(sh *shard) (err error) {
	var inFlight shardCmd
	defer func() {
		if v := recover(); v != nil {
			err = xerr.Panicked(fmt.Sprintf("serve shard %d", sh.i), v)
			replyFailed(inFlight, err)
		}
	}()
	for {
		select {
		case <-s.ctx.Done():
			return nil
		case cmd := <-sh.ch:
			inFlight = cmd
			s.applyShardCmd(sh, cmd)
			inFlight = shardCmd{}
		}
	}
}

// applyShardCmd executes one shard command against the shard's
// Windowed: a request is run and answered, a batch ingested.
func (s *Server) applyShardCmd(sh *shard, cmd shardCmd) {
	if cmd.req != nil {
		cmd.reply <- cmd.req(sh)
		return
	}
	for _, blk := range cmd.blocks {
		sh.wb.Add(blk)
	}
	n := uint64(len(cmd.blocks))
	processed := sh.processed.Add(n)
	if every := s.opt.CheckpointEvery; every > 0 {
		sh.sinceSnap += n
		if sh.sinceSnap >= every {
			sh.sinceSnap = 0
			if r := sh.snapshot(); r.err != nil {
				s.fail(fmt.Errorf("serve: shard %d recovery snapshot: %w", sh.i, r.err))
			}
		}
	}
	if h := s.opt.FaultHook; h != nil {
		h(sh.i, processed)
	}
}

// snapshot serializes the shard's Windowed and stores the blob as the
// in-memory recovery snapshot its supervisor restarts it from: a
// durable checkpoint blob doubles as a recovery snapshot for free.
// Runs on the shard goroutine.
func (sh *shard) snapshot() shardReply {
	var b bytes.Buffer
	if err := sh.wb.Checkpoint(&b); err != nil {
		return shardReply{err: err}
	}
	sh.snap.Store(&shardSnap{data: b.Bytes(), processed: sh.processed.Load()})
	return shardReply{blob: b.Bytes()}
}

// restoreShard rebuilds a restarting shard's Windowed from its last
// recovery snapshot, or cold when none exists (no snapshot yet, or the
// snapshot itself fails to decode). Accesses processed after the
// snapshot are lost — the bounded-loss window CheckpointEvery pins.
// sh.processed stays monotone across restarts: it counts accesses ever
// applied by this shard.
func (s *Server) restoreShard(sh *shard) {
	if snap := sh.snap.Load(); snap != nil {
		wb, err := profile.RestoreWindowed(bytes.NewReader(snap.data))
		if err == nil {
			sh.wb = wb
			return
		}
		s.fail(fmt.Errorf("serve: shard %d recovery snapshot corrupt, restarting cold: %w", sh.i, err))
		sh.snap.Store(nil)
	}
	wb, err := s.newWindowed()
	if err != nil {
		// Options were validated in New; a failure here is a
		// programming error, and panicking would just re-enter the
		// supervisor. Record it and keep the old (post-panic) state.
		s.fail(fmt.Errorf("serve: shard %d cold restart: %w", sh.i, err))
		return
	}
	sh.wb = wb
}

// quarantineShard takes a shard out of service after its circuit
// breaker trips, and escalates to stop-the-world when a strict
// majority of shards is gone — below quorum the merged aggregate no
// longer represents the traffic and limping on would be lying.
func (s *Server) quarantineShard(i int, sh *shard, cause error) {
	sh.quarantined.Store(true)
	q := int(s.nQuarantine.Add(1))
	s.fail(fmt.Errorf("serve: shard %d quarantined after %d restarts (last: %v): %w",
		i, s.opt.MaxShardRestarts, cause, ErrQuarantined))
	if q*2 > len(s.shards) {
		s.fail(fmt.Errorf("serve: quorum lost (%d of %d shards quarantined): %w",
			q, len(s.shards), ErrQuarantined))
		s.cancel()
	}
}

// drainQuarantined keeps a quarantined shard's command channel flowing
// until shutdown: ingest batches are dropped (the accesses inside were
// already admitted and count as lost-in-quarantine in ShardStats, like
// accesses lost to a panic after the last snapshot), and requests
// that raced past the quarantine flag get failure replies so no
// requester ever hangs.
func (s *Server) drainQuarantined(sh *shard) {
	qerr := fmt.Errorf("serve: shard %d quarantined: %w", sh.i, ErrQuarantined)
	for {
		select {
		case <-s.ctx.Done():
			return
		case cmd := <-sh.ch:
			sh.drained.Add(uint64(len(cmd.blocks)))
			replyFailed(cmd, qerr)
		}
	}
}

// replyFailed answers an unservable request with err so its requester
// never hangs. Reply channels are capacity 1, so the send never
// blocks.
func replyFailed(cmd shardCmd, err error) {
	if cmd.reply != nil {
		cmd.reply <- shardReply{err: err}
	}
}
