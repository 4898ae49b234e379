// Package chaos is the deterministic fault harness for the serve
// layer (DESIGN.md §16): seeded schedules inject shard panics at
// chosen access counts, checkpoint corruption and truncation, client
// disconnect storms, overload bursts and window-clock skew against a
// live serve.Server, while invariant checkers assert what §16
// promises — the published epoch sequence stays monotone and
// never-worse (§6 guard), accounting conserves (every access the
// driver sent is admitted, shed, dropped-in-quarantine or rejected,
// exactly once), recovery is bounded (a supervised server finishes a
// schedule and still re-tunes), and shutdown leaks no goroutines.
//
// Determinism: every fault *placement* derives from Config.Seed via a
// splitmix64 stream — the same seed plants the same panics at the same
// per-shard access counts, flips the same checkpoint bits, truncates
// the same streams. What the scheduler does with the resulting timing
// (which exact batch sheds under overload, how ingest interleaves with
// a rotation under clock skew) varies run to run; the invariants are
// written to hold for every interleaving, which is the point of
// running the matrix under -race in CI.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"xoridx/internal/ckpt"
	"xoridx/internal/gf2"
	"xoridx/internal/profile"
	"xoridx/internal/serve"
	"xoridx/internal/xerr"
)

// Kind selects a fault schedule.
type Kind string

const (
	// KindNone drives the workload with no faults — the differential
	// baseline: a supervised server under KindNone must be
	// bit-identical to an unsupervised one.
	KindNone Kind = "none"
	// KindPanic plants shard panics at seeded per-shard access counts.
	KindPanic Kind = "panic"
	// KindCorruptCkpt writes a checkpoint, flips seeded bits in its
	// shard-blob region, and resumes from the damaged file.
	KindCorruptCkpt Kind = "corrupt-ckpt"
	// KindOverload drives bursts into a depth-1 queue behind a slowed
	// shard with shedding enabled.
	KindOverload Kind = "overload"
	// KindDisconnect feeds ServeIngest streams that die mid-frame at
	// seeded points — a client disconnect storm.
	KindDisconnect Kind = "disconnect"
	// KindClockSkew stalls shard goroutines at seeded access counts
	// while automatic window rotations run, skewing the window clock
	// relative to ingest.
	KindClockSkew Kind = "clock-skew"
)

// Kinds lists every fault schedule, KindNone excluded.
func Kinds() []Kind {
	return []Kind{KindPanic, KindCorruptCkpt, KindOverload, KindDisconnect, KindClockSkew}
}

// Config parameterizes one harness run.
type Config struct {
	// Serve is the base server configuration. The harness owns
	// FaultHook (and, for some kinds, CheckpointPath, QueueDepth, Shed
	// and AdmissionWait); everything else is taken as given.
	Serve serve.Options

	Kind Kind
	Seed int64

	// Dir is a scratch directory (required by KindCorruptCkpt).
	Dir string

	// Accesses is the total drive length (default 4096), Batch the
	// accesses per ingest batch (default 128), Clients the distinct
	// client IDs cycled over (default 4), Rounds the explicit re-tune
	// rounds spread through the drive (default 2).
	Accesses int
	Batch    int
	Clients  int
	Rounds   int
}

// EpochSample is one observation of the published epoch.
type EpochSample struct {
	Seq           uint64
	Estimated     uint64
	PrevEstimated uint64
	Degraded      bool
}

// Report is the outcome of one harness run. Violations empty means
// every invariant held.
type Report struct {
	Kind Kind
	Seed int64

	Sent     uint64 // accesses the driver handed to the server
	Rejected uint64 // accesses refused with a non-overload error (ErrClosed)
	Stats    serve.Stats
	Epochs   []EpochSample
	FinalErr error

	// FinalMatrix and FinalProfile capture the end state for
	// differential comparison (nil when the server could no longer
	// serve them — e.g. after an intended escalation).
	FinalMatrix  gf2.Matrix
	FinalProfile *profile.Profile

	Violations []string
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// rng is a splitmix64 stream — deterministic fault placement with no
// dependency on math/rand's global state.
type rng struct{ s uint64 }

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// intn returns a value in [1, n].
func (g *rng) intn(n int) int { return 1 + int(g.next()%uint64(n)) }

// Run executes one seeded schedule and checks the §16 invariants. The
// error return is reserved for harness failures (bad Config); fault
// consequences land in the Report.
func Run(cfg Config) (*Report, error) {
	if cfg.Accesses == 0 {
		cfg.Accesses = 4096
	}
	if cfg.Batch == 0 {
		cfg.Batch = 128
	}
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 2
	}
	if cfg.Kind == "" {
		cfg.Kind = KindNone
	}
	if cfg.Kind == KindCorruptCkpt && cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: KindCorruptCkpt needs Config.Dir: %w", xerr.ErrInvalidOptions)
	}
	rep := &Report{Kind: cfg.Kind, Seed: cfg.Seed}
	h := &harness{cfg: cfg, rep: rep, g: rng{s: uint64(cfg.Seed)*2 + 1}}

	baseline := runtime.NumGoroutine()
	if err := h.run(); err != nil {
		return nil, err
	}
	// Leak check: every goroutine the run started must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			rep.violate("goroutine leak: %d running after shutdown, baseline %d",
				runtime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rep, nil
}

type harness struct {
	cfg Config
	rep *Report
	g   rng

	blockState uint64 // deterministic workload stream
}

// run builds the server(s) for the schedule, drives the workload, and
// fills the report.
func (h *harness) run() error {
	opt := h.cfg.Serve
	switch h.cfg.Kind {
	case KindPanic:
		opt.FaultHook = h.panicHook(opt.Shards)
	case KindOverload:
		opt.Shed = true
		opt.QueueDepth = 1
		opt.AdmissionWait = -1
		slow := h.slowHook(time.Millisecond)
		opt.FaultHook = slow
	case KindClockSkew:
		opt.FaultHook = h.skewHook(opt.Shards)
	case KindCorruptCkpt:
		return h.runCorruptCkpt(opt)
	}

	s, err := serve.New(opt)
	if err != nil {
		return err
	}
	h.driveAndFinish(s, h.cfg.Accesses)
	return nil
}

// driveAndFinish pushes the workload, runs the scheduled re-tunes,
// checks the invariants, and closes the server.
func (h *harness) driveAndFinish(s *serve.Server, accesses int) {
	perRound := accesses / h.cfg.Rounds
	driven := 0
	client := uint64(0)
	for driven < accesses {
		n := h.cfg.Batch
		if driven+n > accesses {
			n = accesses - driven
		}
		if h.cfg.Kind == KindDisconnect {
			h.sendDisconnectStream(s, client%uint64(h.cfg.Clients)+1, n)
		} else {
			h.sendBatch(s, client%uint64(h.cfg.Clients)+1, n)
		}
		client++
		driven += n
		h.observeEpoch(s)
		if driven%perRound < h.cfg.Batch && driven >= perRound {
			h.retune(s)
		}
	}
	h.finish(s)
}

// sendBatch ingests one deterministic batch and accounts its fate.
func (h *harness) sendBatch(s *serve.Server, client uint64, n int) {
	blocks := h.nextBlocks(n)
	h.rep.Sent += uint64(n)
	err := s.IngestBlocks(client, blocks)
	switch {
	case err == nil:
		// Admitted, or dropped-with-accounting by a quarantined shard:
		// either way the server's counters carry it.
	case errors.Is(err, xerr.ErrOverload):
		// Shed with accounting; Stats.Shed carries it.
	default:
		h.rep.Rejected += uint64(n)
		if !errors.Is(err, xerr.ErrCanceled) {
			h.rep.violate("IngestBlocks returned untyped error: %v", err)
		}
	}
}

// sendDisconnectStream drives ServeIngest with a stream that dies
// mid-frame at a seeded point: full frames deliver, the torn one never
// reaches the profile, and the server must shrug the connection off.
func (h *harness) sendDisconnectStream(s *serve.Server, client uint64, n int) {
	var buf bytes.Buffer
	bw := serve.NewBatchWriter(&buf)
	full := h.g.intn(3) // frames that survive before the cut
	for i := 0; i < full; i++ {
		if err := bw.WriteBatch(client, h.nextBlocks(n)); err != nil {
			h.rep.violate("encode: %v", err)
			return
		}
		h.rep.Sent += uint64(n)
	}
	cut := buf.Len()
	if err := bw.WriteBatch(client, h.nextBlocks(n)); err != nil {
		h.rep.violate("encode: %v", err)
		return
	}
	// Tear the last frame: at least one byte, never the whole frame.
	torn := buf.Bytes()[:cut+1+int(h.g.next()%uint64(buf.Len()-cut-1))]
	err := s.ServeIngest(context.Background(), bytes.NewReader(torn))
	if err == nil {
		h.rep.violate("ServeIngest accepted a torn stream")
	} else if !errors.Is(err, xerr.ErrFormat) && !errors.Is(err, xerr.ErrCanceled) {
		h.rep.violate("torn stream returned untyped error: %v", err)
	}
}

// nextBlocks emits the deterministic workload: hot blocks that collide
// under modulo indexing, phase-shifted by the stream position, so
// re-tunes have real conflict structure to chew on.
func (h *harness) nextBlocks(n int) []uint64 {
	cacheBlocks := uint64(64)
	if cb := h.cfg.Serve.Config.CacheBytes / max(h.cfg.Serve.Config.BlockBytes, 1); cb > 0 {
		cacheBlocks = uint64(cb)
	}
	out := make([]uint64, n)
	for i := range out {
		k := h.blockState % 8
		phase := (h.blockState / 4096) % 2
		if phase == 0 {
			out[i] = k * cacheBlocks
		} else {
			out[i] = k*2*cacheBlocks + 17
		}
		h.blockState++
	}
	return out
}

// retune runs one explicit re-tune round, tolerating only the typed
// degradations §16 allows.
func (h *harness) retune(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Retune(ctx); err != nil {
		if !errors.Is(err, serve.ErrQuarantined) && !errors.Is(err, xerr.ErrCanceled) {
			h.rep.violate("Retune: %v", err)
		}
		return
	}
	h.observeEpoch(s)
}

// observeEpoch samples the published epoch and checks monotonicity and
// the §6 never-worse guard.
func (h *harness) observeEpoch(s *serve.Server) {
	ep := s.Current()
	n := len(h.rep.Epochs)
	if n > 0 && ep.Seq < h.rep.Epochs[n-1].Seq {
		h.rep.violate("epoch sequence went backwards: %d after %d", ep.Seq, h.rep.Epochs[n-1].Seq)
	}
	if n > 0 && ep.Seq == h.rep.Epochs[n-1].Seq {
		return
	}
	if ep.Seq > 1 && ep.Estimated > ep.PrevEstimated {
		h.rep.violate("epoch %d published worse than incumbent: %d > %d",
			ep.Seq, ep.Estimated, ep.PrevEstimated)
	}
	h.rep.Epochs = append(h.rep.Epochs, EpochSample{
		Seq: ep.Seq, Estimated: ep.Estimated, PrevEstimated: ep.PrevEstimated, Degraded: ep.Degraded,
	})
}

// finish drains, snapshots the end state, checks conservation and the
// final-error typing, and closes the server.
func (h *harness) finish(s *serve.Server) {
	// A final re-tune is the bounded-recovery probe: a supervised
	// server that survived its schedule must still complete one.
	h.retune(s)
	if p, err := s.Profile(); err == nil {
		h.rep.FinalProfile = p
	}
	h.rep.FinalMatrix = s.Current().Func.Matrix()
	h.rep.Stats = s.Stats()
	h.rep.FinalErr = s.Err()
	h.checkConservation()
	h.checkFinalErr()
	if err := s.Close(); err != nil && !errors.Is(err, xerr.ErrCanceled) {
		h.rep.violate("Close: %v", err)
	}
	h.rep.Stats = s.Stats() // Close-time checkpoint counts
}

// checkConservation asserts the accounting identity: every access the
// driver sent was admitted into a shard queue, shed by overload
// control, dropped at a quarantined shard's door, or rejected back to
// the driver — exactly once.
func (h *harness) checkConservation() {
	st := h.rep.Stats
	got := st.Ingested + st.Shed + st.DroppedQuarantined + h.rep.Rejected
	if got != h.rep.Sent {
		h.rep.violate("conservation broken: ingested %d + shed %d + dropped %d + rejected %d = %d, sent %d",
			st.Ingested, st.Shed, st.DroppedQuarantined, h.rep.Rejected, got, h.rep.Sent)
	}
}

// checkFinalErr allows a clean run or the typed degradations §16
// defines; anything else is a violation.
func (h *harness) checkFinalErr() {
	err := h.rep.FinalErr
	if err == nil {
		return
	}
	if h.cfg.Kind == KindNone {
		h.rep.violate("fault-free run recorded background error: %v", err)
		return
	}
	if !errors.Is(err, xerr.ErrPanic) && !errors.Is(err, serve.ErrQuarantined) &&
		!errors.Is(err, xerr.ErrOverload) && !errors.Is(err, xerr.ErrFormat) {
		h.rep.violate("final error is not typed-degraded: %v", err)
	}
}

// panicHook plants the KindPanic schedule: each shard gets 1-2 seeded
// access-count thresholds; crossing one panics the shard goroutine
// exactly once.
func (h *harness) panicHook(shards int) func(int, uint64) {
	if shards == 0 {
		shards = 1
	}
	perShard := h.cfg.Accesses / shards
	if perShard < 4 {
		perShard = 4
	}
	thresholds := make([][]uint64, shards)
	next := make([]atomic.Int32, shards)
	for i := range thresholds {
		k := h.g.intn(2)
		for j := 0; j < k; j++ {
			thresholds[i] = append(thresholds[i], uint64(h.g.intn(perShard)))
		}
		slices.Sort(thresholds[i])
	}
	return func(sh int, processed uint64) {
		i := int(next[sh].Load())
		if i < len(thresholds[sh]) && processed >= thresholds[sh][i] {
			next[sh].Store(int32(i + 1))
			panic(fmt.Sprintf("chaos: planted panic %d on shard %d at %d", i, sh, processed))
		}
	}
}

// slowHook delays every batch — the consumer-side throttle that makes
// a depth-1 queue overflow under bursts.
func (h *harness) slowHook(d time.Duration) func(int, uint64) {
	return func(int, uint64) { time.Sleep(d) }
}

// skewHook stalls shards at seeded access counts, skewing the window
// clock relative to ingest while automatic rotations run.
func (h *harness) skewHook(shards int) func(int, uint64) {
	if shards == 0 {
		shards = 1
	}
	perShard := h.cfg.Accesses / shards
	if perShard < 4 {
		perShard = 4
	}
	stallAt := make([]uint64, shards)
	done := make([]atomic.Bool, shards)
	for i := range stallAt {
		stallAt[i] = uint64(h.g.intn(perShard))
	}
	return func(sh int, processed uint64) {
		if processed >= stallAt[sh] && done[sh].CompareAndSwap(false, true) {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// runCorruptCkpt is the two-session schedule: run and checkpoint, flip
// seeded bits in the shard-blob region, resume from the damaged file,
// and keep serving.
func (h *harness) runCorruptCkpt(opt serve.Options) error {
	path := filepath.Join(h.cfg.Dir, fmt.Sprintf("chaos-%d.ckpt", h.cfg.Seed))
	opt.CheckpointPath = path

	s, err := serve.New(opt)
	if err != nil {
		return err
	}
	half := h.cfg.Accesses / 2
	driven := 0
	client := uint64(0)
	for driven < half {
		n := h.cfg.Batch
		if driven+n > half {
			n = half - driven
		}
		h.sendBatch(s, client%uint64(h.cfg.Clients)+1, n)
		client++
		driven += n
	}
	h.retune(s)
	if err := s.Close(); err != nil {
		h.rep.violate("phase-1 Close: %v", err)
	}
	sentPhase1 := h.rep.Sent
	h.rep.Rejected = 0

	// Flip 1-3 seeded bits strictly inside the shard-blob region (the
	// envelope's CRC protects the frame; damaging it is the
	// whole-file-corruption case serve's own tests cover).
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	br := bytes.NewReader(raw)
	if _, _, err := ckpt.Read(br, "XSV1"); err != nil {
		return fmt.Errorf("chaos: phase-1 checkpoint unreadable: %w", err)
	}
	envLen := len(raw) - br.Len()
	if envLen >= len(raw) {
		return fmt.Errorf("chaos: checkpoint has no blob region: %w", xerr.ErrFormat)
	}
	flips := h.g.intn(3)
	for i := 0; i < flips; i++ {
		off := envLen + int(h.g.next()%uint64(len(raw)-envLen))
		raw[off] ^= byte(1 << (h.g.next() % 8))
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}

	opt.Resume = true
	s2, err := serve.New(opt)
	if err != nil {
		h.rep.violate("healing resume failed: %v", err)
		return nil
	}
	// Damage may or may not have landed on live histogram bits (a flip
	// can hit a blob's own CRC, or even be masked by varint slack);
	// what §16 requires is that whatever survived is consistent: every
	// damaged shard is reported, the rest resume, and serving goes on.
	if cold := s2.Stats().ColdShards; cold != len(s2.RestoreErrors()) {
		h.rep.violate("ColdShards %d != %d reported restore errors", cold, len(s2.RestoreErrors()))
	}
	// Conservation restarts with the new process's counters.
	h.rep.Sent -= sentPhase1
	h.driveAndFinish(s2, h.cfg.Accesses-half)
	return nil
}
