package search

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/workloads"
)

// BenchmarkClimb measures the general-XOR null-space climb at the
// paper's largest dimensions (n=16, m=8) against the per-candidate
// reference climb (DESIGN.md §10). Both must return the bit-identical
// matrix and estimate; the metrics of record are wall-clock time and
// the transform climb's histogram lookups, which the reference does
// not count. The final sub-benchmark fails when the
// climb's estimate, moves, candidates or lookups differ from the
// committed BENCH_search.json at the repository root — the
// perf-trajectory baseline for the search hot path — and otherwise
// rewrites it with fresh timings.
func BenchmarkClimb(b *testing.B) {
	const n, m, cacheBlocks = 16, 8, 256
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	p := profile.Build(w.Data(1).Blocks(4, n), n, cacheBlocks)
	opt := Options{Family: hash.FamilyGeneralXOR}
	variants := []struct {
		name    string
		climb   func() (Result, error)
		lookups bool
	}{
		{"transform", func() (Result, error) { return Construct(context.Background(), p, m, opt) }, true},
		{"reference", func() (Result, error) { res, _ := referenceConstruct(p, m, opt); return res, nil }, false},
	}
	best := map[string]time.Duration{}
	results := map[string]Result{}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, err := v.climb()
				if err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start)
				if cur, ok := best[v.name]; !ok || elapsed < cur {
					best[v.name] = elapsed
				}
				results[v.name] = res
				if v.lookups {
					b.ReportMetric(float64(res.Lookups), "lookups")
				}
			}
		})
	}
	b.Run("emit-baseline", func(b *testing.B) {
		got, okGot := results["transform"]
		ref, okRef := results["reference"]
		if !okGot || !okRef {
			b.Skip("run the transform and reference sub-benchmarks first")
		}
		if !got.Matrix.Equal(ref.Matrix) || got.Estimated != ref.Estimated ||
			got.Iterations != ref.Iterations || got.Evaluated != ref.Evaluated {
			b.Fatalf("climbs diverged: %+v vs reference %+v", got, ref)
		}
		path := filepath.Join("..", "..", "BENCH_search.json")
		committed, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		var rec searchRecord
		if err := json.Unmarshal(committed, &rec); err != nil {
			b.Fatalf("%s: %v", path, err)
		}
		for _, c := range []struct {
			field     string
			rec, this uint64
		}{
			{"estimated_misses", rec.Estimated, got.Estimated},
			{"iterations", uint64(rec.Iterations), uint64(got.Iterations)},
			{"evaluated", uint64(rec.Evaluated), uint64(got.Evaluated)},
			{"lookups", rec.Lookups, got.Lookups},
		} {
			if c.rec != c.this {
				b.Errorf("%s: %s is %d in the committed record, %d in this run", path, c.field, c.rec, c.this)
			}
		}
		if b.Failed() {
			return
		}
		speedup := float64(best["reference"]) / float64(best["transform"])
		out := searchRecord{
			Benchmark:       "BenchmarkClimb",
			Workload:        "fft",
			N:               n,
			M:               m,
			CacheBlocks:     cacheBlocks,
			GoVersion:       runtime.Version(),
			NumCPU:          runtime.NumCPU(),
			GOMAXPROCS:      runtime.GOMAXPROCS(0),
			Estimated:       got.Estimated,
			Iterations:      got.Iterations,
			Evaluated:       got.Evaluated,
			Lookups:         got.Lookups,
			ReferenceMs:     float64(best["reference"].Microseconds()) / 1000,
			TransformMs:     float64(best["transform"].Microseconds()) / 1000,
			Speedup:         speedup,
			MatrixIdentical: true,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(speedup, "speedup")
	})
}

// searchRecord is BENCH_search.json's schema.
type searchRecord struct {
	Benchmark       string  `json:"benchmark"`
	Workload        string  `json:"workload"`
	N               int     `json:"n"`
	M               int     `json:"m"`
	CacheBlocks     int     `json:"cache_blocks"`
	GoVersion       string  `json:"go_version"`
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Estimated       uint64  `json:"estimated_misses"`
	Iterations      int     `json:"iterations"`
	Evaluated       int     `json:"evaluated"`
	Lookups         uint64  `json:"lookups"`
	ReferenceMs     float64 `json:"reference_ms"`
	TransformMs     float64 `json:"transform_ms"`
	Speedup         float64 `json:"speedup"`
	MatrixIdentical bool    `json:"matrix_identical"`
}
