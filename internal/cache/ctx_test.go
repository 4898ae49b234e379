package cache

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// checksCtx reports done from its (k+1)-th Done call on, so Simulate
// runs exactly k chunks of trace.ChunkLen accesses before it stops.
type checksCtx struct {
	context.Context // already canceled: supplies Err and the cause
	k               int
}

func (c *checksCtx) Done() <-chan struct{} {
	if c.k > 0 {
		c.k--
		return nil // a nil channel is never ready: the check passes
	}
	return c.Context.Done()
}

// ctxTestTrace mixes reads and writes over 20000 accesses: enough for
// several trace.ChunkLen chunks.
func ctxTestTrace() *trace.Trace {
	tr := &trace.Trace{Name: "ctx"}
	for i := 0; i < 20000; i++ {
		kind := trace.Read
		if i%3 == 0 {
			kind = trace.Write
		}
		tr.Append(uint64(i*64)&0xffff, kind)
	}
	return tr
}

// checkSimulate runs Simulate under ctx and checks that it returns the
// stats of the first prefix accesses, driven access by access through
// the stateful cache, and an ErrCanceled error exactly when the run
// stopped short.
func checkSimulate(t *testing.T, ctx context.Context, prefix int) {
	t.Helper()
	tr := ctxTestTrace()
	cfg := Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1, Index: gf2.Identity(16, 8)}
	ref := mustNew(t, cfg)
	for _, a := range tr.Accesses[:prefix] {
		if a.Kind == trace.Write {
			ref.Write(a.Addr)
		} else {
			ref.Access(a.Addr)
		}
	}
	got, err := Simulate(ctx, tr, cfg)
	if len(got) != 1 || got[0] != ref.Stats() {
		t.Errorf("stats %+v, want [%+v]", got, ref.Stats())
	}
	if wantErr := prefix < tr.Len(); wantErr != (err != nil) {
		t.Errorf("error %v, want one: %v", err, wantErr)
	} else if err != nil && (!errors.Is(err, xerr.ErrCanceled) || !errors.Is(err, context.Canceled)) {
		t.Errorf("error %v must wrap ErrCanceled and context.Canceled", err)
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// The three tests below keep the names they had when Cache.RunCtx and
// SimulateBlocksCtx were separate entry points; Simulate now covers both.

// TestRunCtxMatchesRun: an uncanceled Simulate runs the whole trace.
func TestRunCtxMatchesRun(t *testing.T) {
	checkSimulate(t, context.Background(), ctxTestTrace().Len())
}

// TestRunCtxCanceled: a context canceled up front stops Simulate before
// the first access.
func TestRunCtxCanceled(t *testing.T) {
	checkSimulate(t, canceledCtx(), 0)
}

// TestSimulateBlocksCtxCanceled: a cancellation seen at the third check
// stops Simulate after exactly two chunks, with their stats intact.
func TestSimulateBlocksCtxCanceled(t *testing.T) {
	checkSimulate(t, &checksCtx{Context: canceledCtx(), k: 2}, 2*trace.ChunkLen)
}

func TestInvalidGeometryTyped(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, BlockBytes: 4, Ways: 1},
		{SizeBytes: 1000, BlockBytes: 3, Ways: 1},
		{SizeBytes: 1024, BlockBytes: 4, Ways: 3},
		// 2^18 sets: the default modulo index hashes only 16 bits.
		{SizeBytes: 1 << 20, BlockBytes: 4, Ways: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, xerr.ErrInvalidGeometry) {
			t.Errorf("config %d: error %v must wrap ErrInvalidGeometry", i, err)
		}
		if _, err := Simulate(context.Background(), &trace.Trace{}, cfg); !errors.Is(err, xerr.ErrInvalidGeometry) {
			t.Errorf("config %d: Simulate error %v must wrap ErrInvalidGeometry", i, err)
		}
	}
}

// onePassConfigs are four organisations of one trace: direct mapped
// under modulo and under an XOR function, 2-way FIFO and 4-way Random.
func onePassConfigs(t *testing.T) []Config {
	t.Helper()
	h := gf2.Identity(16, 8)
	for c := 0; c < 3; c++ {
		h.Cols[c] |= gf2.Unit(8 + c)
	}
	return []Config{
		{SizeBytes: 1024, BlockBytes: 4, Ways: 1, Index: gf2.Identity(16, 8)},
		{SizeBytes: 1024, BlockBytes: 4, Ways: 1, Index: h},
		{SizeBytes: 1024, BlockBytes: 4, Ways: 2, Index: gf2.Identity(16, 7), Repl: FIFO},
		{SizeBytes: 1024, BlockBytes: 4, Ways: 4, Index: gf2.Identity(16, 6), Repl: Random},
	}
}

// TestSimulateManyEqualsOneAtATime: a pass through several caches gives
// each the statistics it gets from a pass of its own.
func TestSimulateManyEqualsOneAtATime(t *testing.T) {
	tr := refTrace(rand.New(rand.NewSource(1)), 256, 20000)
	cfgs := onePassConfigs(t)
	got, err := Simulate(context.Background(), tr, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("%d stats for %d configs", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		one, err := Simulate(context.Background(), tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != one[0] {
			t.Errorf("config %d: one pass for all %+v, alone %+v", i, got[i], one[0])
		}
		if i > 0 && got[i].Misses == got[0].Misses {
			t.Errorf("config %d: same stats as config 0; the test needs distinct organisations", i)
		}
	}
}

// TestSimulateManyCanceledMidPass: a cancellation seen at the third
// check returns, for every config, the stats of exactly the first two
// chunks, with a wrapped ErrCanceled.
func TestSimulateManyCanceledMidPass(t *testing.T) {
	tr := refTrace(rand.New(rand.NewSource(2)), 256, 20000)
	cfgs := onePassConfigs(t)
	prefix := &trace.Trace{Accesses: tr.Accesses[:2*trace.ChunkLen]}
	want, err := Simulate(context.Background(), prefix, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(&checksCtx{Context: canceledCtx(), k: 2}, tr, cfgs...)
	if !errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("error %v, want a wrapped ErrCanceled", err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("%d partial stats for %d configs", len(got), len(cfgs))
	}
	for i := range cfgs {
		if got[i] != want[i] || got[i].Accesses != 2*trace.ChunkLen {
			t.Errorf("config %d: partial stats %+v, want %+v", i, got[i], want[i])
		}
	}
}
