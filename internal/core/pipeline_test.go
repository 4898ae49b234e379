package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"xoridx/internal/hash"
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
	res, err := TuneCtx(context.Background(), tr, pipelineConfig(), SinkFunc(func(e Event) {
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
	_, err := BuildProfileCtx(ctx, thrashTrace(64, 100), pipelineConfig())
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
	_, err := TuneCtx(ctx, tr, pipelineConfig(), SinkFunc(func(e Event) {
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
		want, err := TuneCtx(context.Background(), tr, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimized.Misses != want.Optimized.Misses {
			t.Errorf("family %v: staged misses %d != TuneCtx misses %d", fam, res.Optimized.Misses, want.Optimized.Misses)
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
			if _, err := TuneCtx(context.Background(), tr, cfg, sink); err != nil {
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
		if _, err := TuneCtx(context.Background(), thrashTrace(64, 1), cfg, nil); !errors.Is(err, ErrInvalidGeometry) {
			t.Errorf("config %d: error %v must wrap ErrInvalidGeometry", i, err)
		}
	}
	// Profile mismatch: profile built for another geometry.
	cfg := pipelineConfig()
	p, err := BuildProfileCtx(context.Background(), thrashTrace(64, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.CacheBytes = 512
	if _, err := TuneProfiledCtx(context.Background(), thrashTrace(64, 10), p, other, nil); !errors.Is(err, ErrProfileMismatch) {
		t.Errorf("error %v must wrap ErrProfileMismatch", err)
	}
}
