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
// histogram lookups per climb. The final sub-benchmark writes
// BENCH_search.json at the repository root — the perf-trajectory
// baseline for the search hot path.
func BenchmarkClimb(b *testing.B) {
	const n, m, cacheBlocks = 16, 8, 256
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	p := profile.Build(w.Data(1).Blocks(4, n), n, cacheBlocks)
	opt := Options{Family: hash.FamilyGeneralXOR}
	variants := []struct {
		name  string
		climb func() (Result, error)
	}{
		{"transform", func() (Result, error) { return Construct(context.Background(), p, m, opt) }},
		{"reference", func() (Result, error) { res, _ := referenceConstruct(p, m, opt); return res, nil }},
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
				b.ReportMetric(float64(res.Lookups), "lookups")
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
		speedup := float64(best["reference"]) / float64(best["transform"])
		out := struct {
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
		}{
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
		path := filepath.Join("..", "..", "BENCH_search.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(speedup, "speedup")
	})
}
