package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"xoridx/internal/cache"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
)

func pipelineConfig() Config {
	return Config{CacheBytes: 256, AddrBits: 12, Family: hash.FamilyGeneralXOR}
}

// TestPipelineEventOrder runs the staged pipeline with a recording sink
// and checks the event protocol: each stage brackets its work with
// StageStarted/StageFinished, in pipeline order, with SearchProgress
// events only inside the search bracket.
func TestPipelineEventOrder(t *testing.T) {
	tr := thrashTrace(64, 300)
	var events []Event
	res, err := Tune(context.Background(), tr, pipelineConfig(), SinkFunc(func(e Event) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Func == nil {
		t.Fatal("no result")
	}
	var order []string
	progress := 0
	searchOpen := false
	for _, e := range events {
		switch e.Kind {
		case StageStarted:
			order = append(order, "start:"+string(e.Stage))
			searchOpen = e.Stage == StageSearch
		case StageFinished:
			order = append(order, "end:"+string(e.Stage))
			if e.Stage == StageSearch {
				searchOpen = false
				if e.Iteration != res.Search.Iterations || e.Evaluated != res.Search.Evaluated {
					t.Errorf("search StageFinished totals (%d, %d) != result (%d, %d)",
						e.Iteration, e.Evaluated, res.Search.Iterations, res.Search.Evaluated)
				}
			}
		case SearchProgress:
			progress++
			if !searchOpen {
				t.Error("SearchProgress outside the search stage bracket")
			}
		}
	}
	want := []string{"start:profile", "end:profile", "start:search", "end:search", "start:validate", "end:validate"}
	if len(order) != len(want) {
		t.Fatalf("stage brackets %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stage brackets %v, want %v", order, want)
		}
	}
	if progress == 0 {
		t.Error("no SearchProgress events for an improving search")
	}
}

func TestTuneCtxCanceledMidProfile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&Pipeline{Config: pipelineConfig()}).Profile(ctx, thrashTrace(64, 100))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must wrap ErrCanceled and context.Canceled", err)
	}
}

// TestTuneCtxCanceledMidSearch cancels from the first SearchProgress
// event: profiling has succeeded, the search is mid-climb, and the
// pipeline must unwind with a wrapped ErrCanceled.
func TestTuneCtxCanceledMidSearch(t *testing.T) {
	tr := thrashTrace(64, 300)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawProfile := false
	_, err := Tune(ctx, tr, pipelineConfig(), SinkFunc(func(e Event) {
		if e.Kind == StageFinished && e.Stage == StageProfile {
			sawProfile = true
		}
		if e.Kind == SearchProgress {
			cancel()
		}
	}))
	if !sawProfile {
		t.Fatal("profiling stage did not complete")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v must wrap ErrCanceled", err)
	}
}

// TestPipelineStagedReuse exercises the staged API directly: one
// profile feeds two searches with different families, and each result
// matches the corresponding one-call pipeline.
func TestPipelineStagedReuse(t *testing.T) {
	tr := thrashTrace(64, 300)
	cfg := pipelineConfig()
	pl := Pipeline{Config: cfg}
	ctx := context.Background()
	p, err := pl.Profile(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []hash.Family{hash.FamilyGeneralXOR, hash.FamilyBitSelect} {
		pl.Config.Family = fam
		sres, err := pl.Search(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Validate(ctx, tr, p, sres)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Family = fam
		want, err := Tune(context.Background(), tr, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimized.Misses != want.Optimized.Misses {
			t.Errorf("family %v: staged misses %d != Tune misses %d", fam, res.Optimized.Misses, want.Optimized.Misses)
		}
	}
}

// TestSharedSinkConcurrentPipelines runs two pipelines concurrently
// into one mutex-guarded sink, as cmd/tables does with parallel
// experiment cells.
func TestSharedSinkConcurrentPipelines(t *testing.T) {
	tr := thrashTrace(64, 300)
	var mu sync.Mutex
	count := 0
	sink := SinkFunc(func(Event) { mu.Lock(); count++; mu.Unlock() })
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			cfg := pipelineConfig()
			cfg.Workers = workers
			if _, err := Tune(context.Background(), tr, cfg, sink); err != nil {
				t.Error(err)
			}
		}(i * 2) // workers 0 and 2
	}
	wg.Wait()
	if count < 12 { // two pipelines x six stage brackets at minimum
		t.Errorf("shared sink saw %d events, want >= 12", count)
	}
}

func TestTypedGeometryErrors(t *testing.T) {
	bad := []Config{
		{},
		{CacheBytes: 1024, BlockBytes: 3},
		{CacheBytes: 1024, AddrBits: 8},
	}
	for i, cfg := range bad {
		if _, err := Tune(context.Background(), thrashTrace(64, 1), cfg, nil); !errors.Is(err, ErrInvalidGeometry) {
			t.Errorf("config %d: error %v must wrap ErrInvalidGeometry", i, err)
		}
	}
	// Profile mismatch: profile built for another geometry.
	cfg := pipelineConfig()
	p, err := (&Pipeline{Config: cfg}).Profile(context.Background(), thrashTrace(64, 10))
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.CacheBytes = 512
	if _, err := TuneProfiled(context.Background(), thrashTrace(64, 10), p, other, nil); !errors.Is(err, ErrProfileMismatch) {
		t.Errorf("error %v must wrap ErrProfileMismatch", err)
	}
}

// TestFileChangedBetweenPasses: validation reads the trace file again,
// so a file rewritten with another trace, or truncated, after the
// profiling pass must fail validation with a wrapped ErrFormat instead
// of validating a different trace.
func TestFileChangedBetweenPasses(t *testing.T) {
	ctx := context.Background()
	changes := map[string]func(t *testing.T, path string){
		// Same name and ops, two accesses fewer: only the count differs.
		"rewritten": func(t *testing.T, path string) {
			other := thrashTrace(64, 299)
			other.Ops = thrashTrace(64, 300).Ops
			writeTrace(t, path, other)
		},
		"renamed": func(t *testing.T, path string) {
			other := thrashTrace(64, 300)
			other.Name = "other"
			writeTrace(t, path, other)
		},
		"truncated": func(t *testing.T, path string) {
			if err := os.Truncate(path, 64); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.xtr")
			writeTrace(t, path, thrashTrace(64, 300))
			f, err := trace.OpenFile(ctx, path, 0)
			if err != nil {
				t.Fatal(err)
			}
			pl := Pipeline{Config: pipelineConfig()}
			p, err := pl.Profile(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := pl.Search(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			change(t, path)
			res, err := pl.Validate(ctx, f, p, sres)
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("validation after the file changed: %v, want a wrapped ErrFormat", err)
			}
			if res == nil || !res.Degraded || res.Baseline.Misses != 0 {
				t.Fatalf("want a Degraded result without simulation stats, got %+v", res)
			}
		})
	}
}

// countingSource counts the passes opened on the trace it wraps.
type countingSource struct {
	trace.Source
	passes int
}

func (c *countingSource) Pass(ctx context.Context) (trace.Pass, error) {
	c.passes++
	return c.Source.Pass(ctx)
}

// TestValidateOnePass: validation simulates the modulo baseline and the
// searched function in one pass of the trace, and a whole Tune reads
// the trace twice, once to profile and once to validate. The results
// equal those of separate simulations of each function.
func TestValidateOnePass(t *testing.T) {
	ctx := context.Background()
	tr := thrashTrace(64, 300)
	pl := Pipeline{Config: pipelineConfig()}
	p, err := pl.Profile(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := pl.Search(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: tr}
	res, err := pl.Validate(ctx, src, p, sres)
	if err != nil {
		t.Fatal(err)
	}
	if src.passes != 1 {
		t.Errorf("Validate opened %d passes, want 1", src.passes)
	}
	cfg := pl.Config.withDefaults()
	for _, c := range []struct {
		name string
		h    gf2.Matrix
		got  cache.Stats
	}{
		{"baseline", gf2.Identity(cfg.AddrBits, cfg.SetBits()), res.Baseline},
		{"optimized", res.Func.Matrix(), res.Optimized},
	} {
		st, err := cache.Simulate(ctx, tr, cache.Config{SizeBytes: cfg.CacheBytes, BlockBytes: cfg.BlockBytes, Ways: cfg.Ways, Index: c.h})
		if err != nil {
			t.Fatal(err)
		}
		if c.got != st[0] {
			t.Errorf("%s stats %+v, simulated alone %+v", c.name, c.got, st[0])
		}
	}
	if res.Optimized.Misses >= res.Baseline.Misses {
		t.Errorf("optimized misses %d, baseline %d: the test needs a function that removes misses", res.Optimized.Misses, res.Baseline.Misses)
	}

	src = &countingSource{Source: tr}
	if _, err := Tune(ctx, src, pipelineConfig(), nil); err != nil {
		t.Fatal(err)
	}
	if src.passes != 2 {
		t.Errorf("Tune opened %d passes, want 2", src.passes)
	}
}

// TestProfileAllocationsPerAccess: Profile turns each chunk of the pass
// into blocks inside the builder's own buffer, so profiling an
// in-memory trace never allocates the 8 bytes per access a block slice
// of the whole trace would take.
func TestProfileAllocationsPerAccess(t *testing.T) {
	const accesses = 1 << 20
	tr := &trace.Trace{Name: "alloc", Accesses: make([]trace.Access, accesses)}
	for i := range tr.Accesses {
		tr.Accesses[i].Addr = uint64(i*7%5000) * 4
	}
	pl := Pipeline{Config: Config{CacheBytes: 4096}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := pl.Profile(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / accesses
	if per >= 8 {
		t.Fatalf("Profile allocated %.2f bytes per access, want < 8", per)
	}
	t.Logf("Profile allocated %.2f bytes per access", per)
}
