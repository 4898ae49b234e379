package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"xoridx/internal/core"
	"xoridx/internal/workloads"
)

// TestConcurrentDriversDifferentWorkerCounts runs two drivers at the
// same time with different worker counts. Before the Options refactor a
// package-level Workers variable made this race; now each driver
// carries its own setting and both must reproduce the sequential rows.
func TestConcurrentDriversDifferentWorkerCounts(t *testing.T) {
	names := []string{"fft"}
	want, err := Table2(context.Background(), Options{}, workloads.MediaSuite(), names, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]Table2Row, 2)
	errs := make([]error, 2)
	for i, workers := range []int{1, 4} {
		wg.Add(1)
		go func(i, workers int) {
			defer wg.Done()
			results[i], errs[i] = Table2(context.Background(),
				Options{Workers: workers}, workloads.MediaSuite(), names, false, 1)
		}(i, workers)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("driver %d: %v", i, errs[i])
		}
		if len(results[i]) != len(want) {
			t.Fatalf("driver %d: %d rows, want %d", i, len(results[i]), len(want))
		}
		for r := range want {
			if results[i][r] != want[r] {
				t.Errorf("driver %d row %d: %+v != sequential %+v", i, r, results[i][r], want[r])
			}
		}
	}
}

// TestDriverCancellation verifies a canceled context aborts a driver
// with a wrapped ErrCanceled instead of partial output.
func TestDriverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Table2(ctx, Options{}, workloads.MediaSuite(), []string{"fft"}, false, 1); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Table2 error %v must wrap core.ErrCanceled", err)
	}
	if _, err := SizeSweep(ctx, Options{}, "fft", []int{1024}, 1); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("SizeSweep error %v must wrap core.ErrCanceled", err)
	}
}

// TestDriverEventsPlumbed checks Options.Events reaches the pipeline:
// a driver run must produce stage events through the shared sink.
func TestDriverEventsPlumbed(t *testing.T) {
	var mu sync.Mutex
	stages := map[core.Stage]int{}
	opt := Options{Events: core.SinkFunc(func(e core.Event) {
		if e.Kind == core.StageFinished {
			mu.Lock()
			stages[e.Stage]++
			mu.Unlock()
		}
	})}
	if _, err := Table2(context.Background(), opt, workloads.MediaSuite(), []string{"fft"}, false, 1); err != nil {
		t.Fatal(err)
	}
	for _, st := range []core.Stage{core.StageSearch, core.StageValidate} {
		if stages[st] == 0 {
			t.Errorf("no StageFinished events for stage %s", st)
		}
	}
}
