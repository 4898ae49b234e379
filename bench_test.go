package xoridx

// One benchmark per table/figure of the paper, plus ablations of the
// design choices called out in DESIGN.md. Custom metrics report the
// reproduced quantities (%removed, switch counts) alongside the usual
// ns/op, so `go test -bench=.` regenerates the evaluation in
// miniature; `go run ./cmd/tables` produces the full tables.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"xoridx/internal/cache"
	"xoridx/internal/core"
	"xoridx/internal/experiments"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/hwcost"
	"xoridx/internal/netlist"
	"xoridx/internal/optimal"
	"xoridx/internal/profile"
	"xoridx/internal/search"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
)

// BenchmarkEq3DesignSpaceCounts reproduces the §2 design-space figures
// (3.4e38 matrices vs 6.3e19 null spaces at n=16, m=8).
func BenchmarkEq3DesignSpaceCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = gf2.CountHashFunctions(16, 8)
		_ = gf2.CountNullSpaces(16, 8)
	}
}

// BenchmarkTable1SwitchCounts reproduces Table 1 from both the closed
// form and the executable netlists and reports the permutation-based
// switch count as a metric.
func BenchmarkTable1SwitchCounts(b *testing.B) {
	var switches int
	for i := 0; i < b.N; i++ {
		for _, m := range []int{8, 10, 12} {
			for _, s := range hwcost.Styles() {
				switches = hwcost.Switches(s, 16, m)
			}
			nl := netlist.NewPermutationXOR2(16, m)
			if nl.SwitchCount() != hwcost.Switches(hwcost.PermutationXOR2, 16, m) {
				b.Fatal("netlist disagrees with formula")
			}
		}
	}
	b.ReportMetric(float64(hwcost.Switches(hwcost.PermutationXOR2, 16, 8)), "perm-switches-m8")
	_ = switches
}

// BenchmarkFig2NetlistEval measures the configured Fig. 2b network's
// evaluation throughput (one full index+tag computation per op).
func BenchmarkFig2NetlistEval(b *testing.B) {
	nl := netlist.NewPermutationXOR2(16, 8)
	h := gf2.Identity(16, 8)
	h.Cols[0] |= gf2.Unit(12)
	h.Cols[3] |= gf2.Unit(9)
	if err := nl.Configure(h); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl.Eval(uint64(i) & 0xFFFF)
	}
}

// BenchmarkFig1Profiling measures the profiling pass (paper Fig. 1) in
// accesses per second on the fft workload at the 4 KB capacity filter.
func BenchmarkFig1Profiling(b *testing.B) {
	tr := mustWorkload(b, "fft").Data(1)
	blocks := tr.Blocks(4, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.Build(blocks, 16, 1024)
	}
	b.ReportMetric(float64(len(blocks)), "accesses/pass")
}

// BenchmarkConstructGeneralXOR times one full general-XOR construction
// at the paper's largest dimensions (the §3.2 "0.5 to 10 seconds"
// claim; modern hardware is far faster).
func BenchmarkConstructGeneralXOR(b *testing.B) {
	tr := mustWorkload(b, "fft").Data(1)
	p := profile.Build(tr.Blocks(4, 16), 16, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Construct(context.Background(), p, 8, search.Options{Family: hash.FamilyGeneralXOR}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructPermutation2 times the constrained matrix-space
// search used for the deployable 2-input functions.
func BenchmarkConstructPermutation2(b *testing.B) {
	tr := mustWorkload(b, "fft").Data(1)
	p := profile.Build(tr.Blocks(4, 16), 16, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Construct(context.Background(), p, 8, search.Options{Family: hash.FamilyPermutation, MaxInputs: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable2Cell runs one Table 2 cell (benchmark × cache size) and
// reports the 2-in removal percentage as a metric.
func benchTable2Cell(b *testing.B, bench string, instruction bool, cacheKB int) {
	w := mustWorkload(b, bench)
	var tr = w.Data(1)
	if instruction {
		tr = w.Instr(1)
	}
	var removed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			CacheBytes: cacheKB * 1024,
			Family:     hash.FamilyPermutation,
			MaxInputs:  2,
			NoFallback: true,
		}
		res, err := core.Tune(context.Background(), tr, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		removed = 100 * res.MissesRemoved()
	}
	b.ReportMetric(removed, "%removed")
}

// BenchmarkTable2Data* regenerate representative Table 2 data-cache
// cells (full table: go run ./cmd/tables -table 2d).
func BenchmarkTable2Data1KB(b *testing.B)  { benchTable2Cell(b, "fft", false, 1) }
func BenchmarkTable2Data4KB(b *testing.B)  { benchTable2Cell(b, "adpcm_dec", false, 4) }
func BenchmarkTable2Data16KB(b *testing.B) { benchTable2Cell(b, "rijndael", false, 16) }

// BenchmarkTable2Instr* regenerate representative instruction-cache
// cells (full table: go run ./cmd/tables -table 2i).
func BenchmarkTable2Instr1KB(b *testing.B)  { benchTable2Cell(b, "dijkstra", true, 1) }
func BenchmarkTable2Instr4KB(b *testing.B)  { benchTable2Cell(b, "jpeg_enc", true, 4) }
func BenchmarkTable2Instr16KB(b *testing.B) { benchTable2Cell(b, "rijndael", true, 16) }

// BenchmarkExp1GeneralVsPermutation reproduces the §6 in-text
// comparison on one benchmark, reporting both removal percentages.
func BenchmarkExp1GeneralVsPermutation(b *testing.B) {
	tr := mustWorkload(b, "susan").Data(1)
	cfg := core.Config{CacheBytes: 4096, NoFallback: true}
	pl := core.Pipeline{Config: cfg}
	p, err := pl.Profile(context.Background(), tr)
	if err != nil {
		b.Fatal(err)
	}
	var genPct, permPct float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := cfg
		g.Family = hash.FamilyGeneralXOR
		gres, err := core.TuneProfiled(context.Background(), tr, p, g, nil)
		if err != nil {
			b.Fatal(err)
		}
		pm := cfg
		pm.Family = hash.FamilyPermutation
		pres, err := core.TuneProfiled(context.Background(), tr, p, pm, nil)
		if err != nil {
			b.Fatal(err)
		}
		genPct = 100 * gres.MissesRemoved()
		permPct = 100 * pres.MissesRemoved()
	}
	b.ReportMetric(genPct, "%general")
	b.ReportMetric(permPct, "%permutation")
}

// BenchmarkTable3OptimalBitSelect times the exhaustive Patel-style
// optimal search on one PowerStone trace (the "very slow" baseline).
func BenchmarkTable3OptimalBitSelect(b *testing.B) {
	tr := mustWorkload(b, "engine").Data(1)
	if tr.Len() > experiments.Table3MaxTrace {
		tr.Accesses = tr.Accesses[:experiments.Table3MaxTrace]
	}
	blocks := tr.Blocks(4, 16)
	b.ResetTimer()
	var removed float64
	base := float64(0)
	for i := 0; i < b.N; i++ {
		res, err := optimal.ExactBitSelect(context.Background(), blocks, 16, 10)
		if err != nil {
			b.Fatal(err)
		}
		conv := optimalConvMisses(blocks)
		base = float64(conv)
		removed = 100 * (1 - float64(res.Misses)/float64(conv))
	}
	b.ReportMetric(removed, "%removed-opt")
	_ = base
}

// optimalConvMisses simulates the conventional function for the Table 3
// baseline.
func optimalConvMisses(blocks []uint64) uint64 {
	f := hash.Modulo(16, 10)
	misses := uint64(0)
	tags := make([]uint64, 1024)
	for _, blk := range blocks {
		idx := f.Index(blk)
		if tags[idx] != blk+1 {
			misses++
			tags[idx] = blk + 1
		}
	}
	return misses
}

// BenchmarkTable3Row runs one complete Table 3 row (all six columns).
func BenchmarkTable3Row(b *testing.B) {
	var row experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(context.Background(), experiments.Options{}, []string{"engine"}, 1)
		if err != nil {
			b.Fatal(err)
		}
		row = rows[0]
	}
	b.ReportMetric(row.OptPct, "%opt")
	b.ReportMetric(row.In2Pct, "%2-in")
	b.ReportMetric(row.FAPct, "%FA")
}

// BenchmarkAblationEstimatorVsSimulation quantifies the paper's key
// algorithmic choice: scoring a candidate via the Eq. 4 null-space
// estimate instead of re-simulating the trace. The reported metric is
// the speedup factor.
func BenchmarkAblationEstimatorVsSimulation(b *testing.B) {
	tr := mustWorkload(b, "fft").Data(1)
	blocks := tr.Blocks(4, 16)
	p := profile.Build(blocks, 16, 1024)
	h := gf2.Identity(16, 10)
	h.Cols[0] |= gf2.Unit(12)
	ns := h.NullSpace()
	f := hash.MustXOR(h)
	b.Run("estimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.EstimateSubspace(ns)
		}
	})
	b.Run("simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tags := make([]uint64, 1024)
			for _, blk := range blocks {
				idx := f.Index(blk)
				if tags[idx] != blk+1 {
					tags[idx] = blk + 1
				}
			}
		}
	})
}

// BenchmarkAblationRestarts measures what the (beyond-paper) random
// restarts add over the single conventional start.
func BenchmarkAblationRestarts(b *testing.B) {
	tr := mustWorkload(b, "mpeg2_dec").Data(1)
	p := profile.Build(tr.Blocks(4, 16), 16, 1024)
	for _, restarts := range []int{0, 3} {
		name := "paper-single-start"
		if restarts > 0 {
			name = "with-3-restarts"
		}
		b.Run(name, func(b *testing.B) {
			var est uint64
			for i := 0; i < b.N; i++ {
				res, err := search.Construct(context.Background(), p, 10, search.Options{
					Family: hash.FamilyPermutation, MaxInputs: 2,
					Restarts: restarts, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				est = res.Estimated
			}
			b.ReportMetric(float64(est), "est-misses")
		})
	}
}

// BenchmarkCacheSimulator measures raw simulation throughput over
// susan's data trace, configured the way the pipeline's validation stage
// simulates: 4 KB direct-mapped, 4-byte blocks, 16 address bits. The
// modulo case runs one cache; the pair case runs modulo and a general
// XOR function (address folding) in one cache.Simulate pass, as
// Pipeline.Validate does. Both report ns per simulated access.
func BenchmarkCacheSimulator(b *testing.B) {
	tr := mustWorkload(b, "susan").Data(1)
	cfg := cache.Config{SizeBytes: 4096, BlockBytes: 4, Ways: 1}
	cfg.Index = gf2.Identity(16, cfg.SetBits())
	folded, err := hash.FoldedXOR(16, cfg.SetBits())
	if err != nil {
		b.Fatal(err)
	}
	xor := cfg
	xor.Index = folded.Matrix()
	for _, bc := range []struct {
		name string
		cfgs []cache.Config
	}{
		{"modulo", []cache.Config{cfg}},
		{"pair", []cache.Config{cfg, xor}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			simulated := int64(tr.Len() * len(bc.cfgs))
			b.SetBytes(simulated)
			for i := 0; i < b.N; i++ {
				st, err := cache.Simulate(context.Background(), tr, bc.cfgs...)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range st {
					if s.Accesses != uint64(tr.Len()) {
						b.Fatalf("simulated %d of %d accesses", s.Accesses, tr.Len())
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*simulated), "ns/access")
		})
	}
}

func mustWorkload(b *testing.B, name string) workloads.Workload {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkAblationAnnealVsHillClimb compares the paper's hill climber
// with the simulated-annealing variant (§3.3's "improved search phase")
// on the same profile, reporting both final estimates.
func BenchmarkAblationAnnealVsHillClimb(b *testing.B) {
	tr := mustWorkload(b, "mpeg2_dec").Data(1)
	p := profile.Build(tr.Blocks(4, 16), 16, 1024)
	b.Run("hill-climb", func(b *testing.B) {
		var est uint64
		for i := 0; i < b.N; i++ {
			res, err := search.Construct(context.Background(), p, 10, search.Options{Family: hash.FamilyGeneralXOR})
			if err != nil {
				b.Fatal(err)
			}
			est = res.Estimated
		}
		b.ReportMetric(float64(est), "est-misses")
	})
	b.Run("anneal-20k", func(b *testing.B) {
		var est uint64
		for i := 0; i < b.N; i++ {
			res, err := search.Construct(context.Background(), p, 10, search.Options{Family: hash.FamilyGeneralXOR, Algorithm: search.Anneal, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			est = res.Estimated
		}
		b.ReportMetric(float64(est), "est-misses")
	})
}

// BenchmarkExtensionHierarchy runs the two-level hierarchy with and
// without a tuned L1 index and reports the AMAT of each.
func BenchmarkExtensionHierarchy(b *testing.B) {
	tr := mustWorkload(b, "fft").Data(1)
	res, err := core.Tune(context.Background(), tr, core.Config{CacheBytes: 1024, Family: hash.FamilyPermutation, MaxInputs: 2}, nil)
	if err != nil {
		b.Fatal(err)
	}
	amat := func(l1, l2 cache.Config) float64 {
		h, err := cache.NewHierarchy(l1, l2)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range tr.Accesses {
			h.Access(a.Addr, a.Kind == trace.Write)
		}
		return h.AMAT(1, 8, 60)
	}
	var amatConv, amatXOR float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2 := cache.Config{SizeBytes: 16384, BlockBytes: 16, Ways: 4, Index: gf2.Identity(16, 8)}
		amatConv = amat(cache.Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1}, l2)
		amatXOR = amat(cache.Config{SizeBytes: 1024, BlockBytes: 4, Ways: 1, Index: res.Func.Matrix()}, l2)
	}
	b.ReportMetric(amatConv, "AMAT-conv")
	b.ReportMetric(amatXOR, "AMAT-xor")
}

// BenchmarkExtensionFixedHashes scores the related-work fixed hashes
// against the tuned function on one workload (misses reported).
func BenchmarkExtensionFixedHashes(b *testing.B) {
	var rows []experiments.FixedRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.FixedVsTuned(context.Background(), experiments.Options{}, []string{"susan"}, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].Poly), "poly-misses")
		b.ReportMetric(float64(rows[0].Tuned), "tuned-misses")
	}
}

// BenchmarkExtensionOptimalXOR times the exhaustive optimal-XOR search
// (paper §7's open problem) at a feasible size.
func BenchmarkExtensionOptimalXOR(b *testing.B) {
	var blocks []uint64
	for rep := 0; rep < 30; rep++ {
		for i := uint64(0); i < 24; i++ {
			blocks = append(blocks, i*16, i*16^0x155)
		}
	}
	p := profile.Build(blocks, 9, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.ExhaustiveXOR(context.Background(), p, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConstructiveVsSearch compares the cheap covering
// heuristic (refs [1]/[4] style) with the paper's hill climber.
func BenchmarkAblationConstructiveVsSearch(b *testing.B) {
	tr := mustWorkload(b, "susan").Data(1)
	p := profile.Build(tr.Blocks(4, 16), 16, 1024)
	b.Run("constructive", func(b *testing.B) {
		var est uint64
		for i := 0; i < b.N; i++ {
			res, err := search.Construct(context.Background(), p, 10, search.Options{Family: hash.FamilyPermutation, Algorithm: search.Constructive, MaxInputs: 2})
			if err != nil {
				b.Fatal(err)
			}
			est = res.Estimated
		}
		b.ReportMetric(float64(est), "est-misses")
	})
	b.Run("hill-climb", func(b *testing.B) {
		var est uint64
		for i := 0; i < b.N; i++ {
			res, err := search.Construct(context.Background(), p, 10, search.Options{Family: hash.FamilyPermutation, MaxInputs: 2})
			if err != nil {
				b.Fatal(err)
			}
			est = res.Estimated
		}
		b.ReportMetric(float64(est), "est-misses")
	})
}

// synthProfileBlocks generates a deterministic synthetic block trace of
// the given length mixing stride bursts, small working-set loops and
// uniform noise — the access mix that makes the Fig. 1 pass both
// conflict-rich and shard-friendly. Used by the parallel-profiling
// benchmarks below.
func synthProfileBlocks(length int) []uint64 {
	r := rand.New(rand.NewSource(1234))
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		switch r.Intn(3) {
		case 0: // stride burst (aliasing rows)
			stride := uint64(1) << uint(4+r.Intn(7))
			base := uint64(r.Intn(1 << 16))
			for i := uint64(0); i < 64; i++ {
				blocks = append(blocks, base+i*stride)
			}
		case 1: // working-set loop
			set := 16 + r.Intn(240)
			base := uint64(r.Intn(1 << 16))
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < set; i++ {
					blocks = append(blocks, base+uint64(i))
				}
			}
		default: // noise
			for i := 0; i < 32; i++ {
				blocks = append(blocks, uint64(r.Intn(1<<18)))
			}
		}
	}
	return blocks[:length]
}

// benchParallelResult is one parallel-section row of BENCH_profile.json:
// BuildStream at one worker count on one workload shape. SpeedupVs1 is relative to the same workload's workers=1 row.
type benchParallelResult struct {
	Workload      string  `json:"workload"`
	Workers       int     `json:"workers"`
	AccessesPerMs float64 `json:"accesses_per_ms"`
	SpeedupVs1    float64 `json:"speedup_vs_1"`
}

// benchSequentialResult is one sequential-section row of
// BENCH_profile.json: the overhauled Build against the pre-overhaul
// reference implementation on one workload shape.
type benchSequentialResult struct {
	Workload     string  `json:"workload"`
	Accesses     int     `json:"accesses"`
	NewPerMs     float64 `json:"new_accesses_per_ms"`
	RefPerMs     float64 `json:"ref_accesses_per_ms"`
	SpeedupVsRef float64 `json:"speedup_vs_ref"`
}

// benchSampledResult is one sampled-section row: the every-k-th-
// candidate build against the exact build on the same walk-heavy
// workload, plus the accuracy ledger — the scaled Eq. 4 estimate for
// the conventional function, the exact value, and whether the exact
// value fell inside the reported 95% confidence margin.
type benchSampledResult struct {
	K              uint64  `json:"k"`
	Accesses       int     `json:"accesses"`
	ExactPerMs     float64 `json:"exact_accesses_per_ms"`
	SampledPerMs   float64 `json:"sampled_accesses_per_ms"`
	SpeedupVsExact float64 `json:"speedup_vs_exact"`
	Estimate       uint64  `json:"estimate"`
	Exact          uint64  `json:"exact"`
	Margin         uint64  `json:"margin"`
	WithinBound    bool    `json:"within_bound"`
}

// benchSketchResult is the sketch section: the capped-map backend at
// its default cap against the sparse map on a wide-support workload.
// Violations counts support vectors whose true count fell outside
// [At(v), At(v)+slack]; the Misra–Gries bound allows none.
type benchSketchResult struct {
	Accesses    int     `json:"accesses"`
	Entries     int     `json:"entries"`
	Slack       uint64  `json:"slack"`
	TotalPairs  uint64  `json:"total_pairs"`
	Support     int     `json:"support"`
	Violations  int     `json:"violations"`
	SparseBytes int     `json:"sparse_bytes"`
	SketchBytes int     `json:"sketch_bytes"`
	MemoryRatio float64 `json:"memory_ratio"`
	WithinBound bool    `json:"within_bound"`
}

// benchProfileFile is the BENCH_profile.json schema (validated by
// cmd/benchcheck and rendered into README's perf table). Three
// benchmarks contribute to it — BenchmarkBuild fills the sequential
// section, BenchmarkBuildParallel the parallel one, and
// BenchmarkBuildOutOfCore the sampled/sketch sections — so each
// performs a read-modify-write of its own section.
type benchProfileFile struct {
	Benchmark   string                  `json:"benchmark"`
	N           int                     `json:"n"`
	CacheBlocks int                     `json:"cache_blocks"`
	GoVersion   string                  `json:"go_version"`
	NumCPU      int                     `json:"num_cpu"`
	Sequential  []benchSequentialResult `json:"sequential"`
	Parallel    []benchParallelResult   `json:"parallel"`
	Sampled     []benchSampledResult    `json:"sampled"`
	Sketch      *benchSketchResult      `json:"sketch"`
}

// updateBenchProfile merges one benchmark's section into
// BENCH_profile.json, preserving the other section when the file
// already holds a compatible baseline.
func updateBenchProfile(b *testing.B, mutate func(*benchProfileFile)) {
	b.Helper()
	out := benchProfileFile{}
	if data, err := os.ReadFile("BENCH_profile.json"); err == nil {
		_ = json.Unmarshal(data, &out) // a malformed file is simply rebuilt
	}
	out.Benchmark = "BenchmarkBuild+BenchmarkBuildParallel"
	out.N = benchProfileN
	out.CacheBlocks = benchProfileCacheBlocks
	out.GoVersion = runtime.Version()
	out.NumCPU = runtime.NumCPU()
	mutate(&out)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_profile.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// Shared geometry of the profiling benchmarks.
const (
	benchProfileN           = 16
	benchProfileCacheBlocks = 1024
)

// refProfileBuild is the pre-overhaul profiling pass — pointer-linked
// LRU stack, bounded counting walk, rollback re-walk on capacity
// misses — kept here as the benchmark baseline so BENCH_profile.json
// records the overhaul's speedup rather than an absolute number that
// drifts with the host.
func refProfileBuild(blocks []uint64, n, cacheBlocks int) *profile.Profile {
	type node struct {
		block      uint64
		prev, next *node
	}
	byBlock := make(map[uint64]*node)
	var top *node
	p := &profile.Profile{N: n, CacheBlocks: cacheBlocks, Table: make([]uint64, 1<<uint(n))}
	mask := uint64(1)<<uint(n) - 1
	moveToTop := func(nd *node) {
		if top == nd {
			return
		}
		if nd.prev != nil {
			nd.prev.next = nd.next
		}
		if nd.next != nil {
			nd.next.prev = nd.prev
		}
		nd.prev = nil
		nd.next = top
		top.prev = nd
		top = nd
	}
	for _, raw := range blocks {
		b := raw & mask
		p.Accesses++
		target, ok := byBlock[b]
		if !ok {
			p.Compulsory++
			nd := &node{block: b, next: top}
			if top != nil {
				top.prev = nd
			}
			top = nd
			byBlock[b] = nd
			continue
		}
		visited := 0
		reached := false
		for nd := top; nd != nil; nd = nd.next {
			if nd == target {
				reached = true
				break
			}
			if visited >= cacheBlocks {
				break
			}
			p.Table[b^nd.block]++
			p.TotalPairs++
			visited++
		}
		if reached {
			p.Candidates++
		} else {
			p.Capacity++
			visited = 0
			for nd := top; nd != target && visited < cacheBlocks; nd = nd.next {
				p.Table[b^nd.block]--
				p.TotalPairs--
				visited++
			}
		}
		moveToTop(target)
	}
	return p
}

// sameFlatProfile reports whether two flat profiles are bit-identical:
// every bookkeeping counter and every histogram entry.
func sameFlatProfile(got, want *profile.Profile) bool {
	return got.Accesses == want.Accesses && got.Compulsory == want.Compulsory &&
		got.Capacity == want.Capacity && got.Candidates == want.Candidates &&
		got.TotalPairs == want.TotalPairs && slices.Equal(got.Table, want.Table)
}

// capacityHeavyBlocks draws uniformly from a universe far larger than
// the capacity filter, so virtually every re-reference has a reuse
// distance beyond cacheBlocks: the workload where the old pass paid a
// full bounded walk plus a rollback re-walk per access and the
// distance gate pays one order-statistics query.
func capacityHeavyBlocks(length int) []uint64 {
	r := rand.New(rand.NewSource(4321))
	blocks := make([]uint64, length)
	for i := range blocks {
		blocks[i] = uint64(r.Intn(1 << 16))
	}
	return blocks
}

// loopHeavyBlocks cycles tight loops whose working sets fit the
// capacity filter, so almost every access is a conflict candidate that
// must walk: the workload where the gate is pure overhead and the
// window walk has to earn it back.
func loopHeavyBlocks(length int) []uint64 {
	r := rand.New(rand.NewSource(8765))
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		set := 64 + r.Intn(448) // well under cacheBlocks
		base := uint64(r.Intn(1 << 15))
		for rep := 0; rep < 6 && len(blocks) < length; rep++ {
			for i := 0; i < set && len(blocks) < length; i++ {
				blocks = append(blocks, base+uint64(i))
			}
		}
	}
	return blocks
}

// BenchmarkBuild measures the sequential Fig. 1 pass — the LRU gate of
// stamps and top-of-stack window, backend-specialized accumulation —
// against the pre-overhaul reference on three workload
// shapes, requiring bit-identical profiles (every counter and every
// histogram entry) and recording the speedups in the sequential section
// of BENCH_profile.json.
func BenchmarkBuild(b *testing.B) {
	workloads := []struct {
		name   string
		blocks []uint64
	}{
		{"capacity-heavy", capacityHeavyBlocks(300_000)},
		{"loop-heavy", loopHeavyBlocks(600_000)},
		{"mixed", synthProfileBlocks(1_000_000)},
	}
	results := make([]benchSequentialResult, 0, len(workloads))
	for _, w := range workloads {
		var newBest, refBest time.Duration
		b.Run(w.name+"/new", func(b *testing.B) {
			b.SetBytes(int64(len(w.blocks)) * 8)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				profile.Build(w.blocks, benchProfileN, benchProfileCacheBlocks)
				if d := time.Since(start); newBest == 0 || d < newBest {
					newBest = d
				}
			}
		})
		b.Run(w.name+"/ref", func(b *testing.B) {
			b.SetBytes(int64(len(w.blocks)) * 8)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				refProfileBuild(w.blocks, benchProfileN, benchProfileCacheBlocks)
				if d := time.Since(start); refBest == 0 || d < refBest {
					refBest = d
				}
			}
		})
		if newBest == 0 || refBest == 0 {
			continue
		}
		// The baseline is only meaningful if both passes agree.
		got := profile.Build(w.blocks, benchProfileN, benchProfileCacheBlocks)
		want := refProfileBuild(w.blocks, benchProfileN, benchProfileCacheBlocks)
		if !sameFlatProfile(got, want) {
			b.Fatalf("%s: overhauled pass diverged from reference", w.name)
		}
		perMs := func(d time.Duration) float64 {
			return float64(len(w.blocks)) / (float64(d.Microseconds())/1000 + 1e-9)
		}
		results = append(results, benchSequentialResult{
			Workload:     w.name,
			Accesses:     len(w.blocks),
			NewPerMs:     perMs(newBest),
			RefPerMs:     perMs(refBest),
			SpeedupVsRef: float64(refBest) / float64(newBest),
		})
	}
	b.Run("emit-baseline", func(b *testing.B) {
		if len(results) == 0 {
			b.Skip("run the workload sub-benchmarks first")
		}
		updateBenchProfile(b, func(f *benchProfileFile) { f.Sequential = results })
		for _, r := range results {
			b.ReportMetric(r.SpeedupVsRef, r.Workload+"-speedup")
		}
	})
}

// BenchmarkBuildParallel measures BuildStream across worker counts —
// one contiguous slice of the trace per worker, joined in order — on
// the two workload shapes that bracket it: capacity-heavy (slices
// barely interact — near-ideal scaling) and mixed (locality spans
// boundaries — the join earns its keep). Each (workload, workers) row
// is the median of parallelReps runs, and the runs interleave worker
// counts, so a change in the machine's load reaches every row alike
// instead of deciding one row's single sample.
// Every measured profile is checked bit-identical to the sequential
// Build before its timing may enter the baseline. The final
// sub-benchmark writes the workload-tagged parallel section of
// BENCH_profile.json, which cmd/benchcheck -perf holds to a monotone
// multi-worker speedup contract.
func BenchmarkBuildParallel(b *testing.B) {
	const accesses = 4_000_000
	const parallelReps = 5
	const n, cacheBlocks = benchProfileN, benchProfileCacheBlocks
	workloads := []struct {
		name   string
		blocks []uint64
	}{
		{"capacity-heavy", capacityHeavyBlocks(accesses)},
		{"mixed", synthProfileBlocks(accesses)},
	}
	workerCounts := []int{1, 2, 4, 8}
	var results []benchParallelResult
	for _, w := range workloads {
		want := profile.Build(w.blocks, n, cacheBlocks)
		src := blockTrace(w.blocks)
		perMs := make(map[int]float64)
		b.Run(w.name, func(b *testing.B) {
			b.SetBytes(accesses * 8 * parallelReps * int64(len(workerCounts)))
			runs := make(map[int][]time.Duration)
			for i := 0; i < b.N; i++ {
				for rep := 0; rep < parallelReps; rep++ {
					for _, workers := range workerCounts {
						start := time.Now()
						got, err := profile.BuildStream(context.Background(), src, 1, n, cacheBlocks,
							profile.Options{Workers: workers})
						if err != nil {
							b.Fatal(err)
						}
						runs[workers] = append(runs[workers], time.Since(start))
						if !sameFlatProfile(got, want) {
							b.Fatalf("%s workers=%d: parallel build diverged from sequential", w.name, workers)
						}
					}
				}
			}
			for _, workers := range workerCounts {
				d := runs[workers]
				slices.Sort(d)
				rate := float64(accesses) / (float64(d[len(d)/2].Microseconds())/1000 + 1e-9)
				perMs[workers] = rate
				b.ReportMetric(rate, fmt.Sprintf("accesses/ms@workers=%d", workers))
			}
		})
		if perMs[1] == 0 {
			continue
		}
		for _, wk := range workerCounts {
			results = append(results, benchParallelResult{
				Workload: w.name, Workers: wk,
				AccessesPerMs: perMs[wk], SpeedupVs1: perMs[wk] / perMs[1],
			})
		}
	}
	b.Run("emit-baseline", func(b *testing.B) {
		if len(results) == 0 {
			b.Skip("run the workload sub-benchmarks first")
		}
		updateBenchProfile(b, func(f *benchProfileFile) { f.Parallel = results })
	})
}

// blockTrace is an in-memory trace whose access addresses are the given
// block addresses, for profiling at a block size of 1 byte.
func blockTrace(blocks []uint64) *trace.Trace {
	tr := &trace.Trace{Accesses: make([]trace.Access, len(blocks))}
	for i, b := range blocks {
		tr.Accesses[i].Addr = b
	}
	return tr
}

// BenchmarkBuildStream measures the end-to-end streaming pipeline —
// a profiling pass over the trace file, binary decode through sliced
// profiling — against the materialize-then-profile path on the same
// encoded trace.
func BenchmarkBuildStream(b *testing.B) {
	tr := &trace.Trace{Name: "stream-bench"}
	for _, blk := range synthProfileBlocks(1_000_000) {
		tr.Append(blk*4, trace.Read)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	path := filepath.Join(b.TempDir(), "stream-bench.xtr")
	if err := os.WriteFile(path, encoded, 0o644); err != nil {
		b.Fatal(err)
	}
	file, err := trace.OpenFile(context.Background(), path, 0)
	if err != nil {
		b.Fatal(err)
	}
	const n, cacheBlocks = 16, 1024
	b.Run("materialize+build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t2, err := trace.Decode(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			profile.Build(t2.Blocks(4, n), n, cacheBlocks)
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("stream-workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl := core.Pipeline{Config: core.Config{CacheBytes: 4 * cacheBlocks, AddrBits: n, Workers: workers}}
				if _, err := pl.Profile(context.Background(), file); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// walkHeavyBlocks cycles loops whose working sets nearly fill the
// capacity filter and stride exactly one set-space apart in a 20-bit
// block space — the paper's pathological row-stride shape. Every block
// in a window shares its low set bits, so nearly every access is a
// conflict candidate whose full-window stack walk feeds the histogram:
// the cost the sampling gate skips, on a workload where the modulo
// baseline genuinely conflicts.
func walkHeavyBlocks(length int) []uint64 {
	r := rand.New(rand.NewSource(5309))
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		set := 512 + r.Intn(384) // most of cacheBlocks, never past it
		base := uint64(r.Intn(1 << 20))
		for rep := 0; rep < 4 && len(blocks) < length; rep++ {
			for i := 0; i < set && len(blocks) < length; i++ {
				blocks = append(blocks, base+uint64(i)*1024)
			}
		}
	}
	return blocks
}

// scatteredLoopBlocks cycles phases of set-sized working sets drawn
// uniformly from an n-bit block space. Every pair inside a phase is a
// distinct random conflict vector, so ~phases·set²/2 vectors enter the
// histogram: the wide-support shape where the sparse map pays ~48 bytes
// per distinct vector while the sketch stays at its entry cap.
func scatteredLoopBlocks(length, set, phases int, n uint) []uint64 {
	r := rand.New(rand.NewSource(99))
	blocks := make([]uint64, 0, length)
	per := length / phases
	for ph := 0; ph < phases; ph++ {
		ws := make([]uint64, set)
		for i := range ws {
			ws[i] = uint64(r.Int63()) & (1<<n - 1)
		}
		limit := (ph + 1) * per
		if ph == phases-1 {
			limit = length
		}
		for len(blocks) < limit {
			for _, w := range ws {
				if len(blocks) == limit {
					break
				}
				blocks = append(blocks, w)
			}
		}
	}
	return blocks
}

// BenchmarkBuildOutOfCore measures the approximate out-of-core
// profiling paths (DESIGN.md §17) and records the sampled and sketch
// sections of BENCH_profile.json, which cmd/benchcheck -perf holds to
// the §17 contracts: the k=16 sampled build is >= 4x the exact build with the exact estimate
// inside the reported margin, and the sketch at its default cap spends
// >= 10x less histogram memory than the sparse map with no count
// outside its slack. emit-baseline writes the sections whose
// sub-benchmarks ran, so -bench 'BuildOutOfCore/(sketch|emit)'
// re-records the sketch section alone.
func BenchmarkBuildOutOfCore(b *testing.B) {
	// Keyed by k: the testing package may re-enter a sub-benchmark
	// closure, and appending would then record duplicate rows.
	sampledByK := map[uint64]benchSampledResult{}
	var kres *benchSketchResult

	b.Run("sampled", func(b *testing.B) {
		// Walk-heavy workload: nearly every access is a conflict
		// candidate with a long stack walk, so the sampling gate has the
		// most work to skip — the shape sampling exists for.
		blocks := walkHeavyBlocks(600_000)
		src := blockTrace(blocks)
		const n, m = 20, 10
		exact := profile.Build(blocks, n, benchProfileCacheBlocks)
		exactEst := exact.EstimateConventional(m)
		var exactBest time.Duration
		b.Run("exact", func(b *testing.B) {
			b.SetBytes(int64(len(blocks)) * 8)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				profile.Build(blocks, n, benchProfileCacheBlocks)
				if d := time.Since(start); exactBest == 0 || d < exactBest {
					exactBest = d
				}
			}
		})
		perMs := func(d time.Duration) float64 {
			return float64(len(blocks)) / (float64(d.Microseconds())/1000 + 1e-9)
		}
		for _, k := range []uint64{4, 16, 64} {
			b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
				b.SetBytes(int64(len(blocks)) * 8)
				var best time.Duration
				var p *profile.Profile
				for i := 0; i < b.N; i++ {
					start := time.Now()
					var err error
					p, err = profile.BuildStream(context.Background(), src, 1, n, benchProfileCacheBlocks,
						profile.Options{Sample: profile.SampleOptions{K: k, Seed: 7}})
					if err != nil {
						b.Fatal(err)
					}
					if d := time.Since(start); best == 0 || d < best {
						best = d
					}
				}
				if exactBest == 0 {
					b.Skip("run the exact sub-benchmark first")
				}
				conf := p.ConfidenceFor(p.EstimateConventional(m))
				diff := int64(conf.Estimate) - int64(exactEst)
				if diff < 0 {
					diff = -diff
				}
				sampledByK[k] = benchSampledResult{
					K:              k,
					Accesses:       len(blocks),
					ExactPerMs:     perMs(exactBest),
					SampledPerMs:   perMs(best),
					SpeedupVsExact: float64(exactBest) / float64(best),
					Estimate:       conf.Estimate,
					Exact:          exactEst,
					Margin:         conf.Margin,
					WithinBound:    uint64(diff) <= conf.Margin,
				}
				b.ReportMetric(float64(exactBest)/float64(best), "speedup-vs-exact")
				b.ReportMetric(conf.RelError*100, "rel-error-%")
			})
		}
	})

	b.Run("sketch", func(b *testing.B) {
		// 24-bit block space: the widest a flat table stores, with a
		// support wide enough that the sparse map costs real memory. The
		// exact reference builds the same blocks at MaxFlatBits+1, the
		// narrowest width the sparse map holds.
		const n = 24
		blocks := scatteredLoopBlocks(160_000, 360, 4, n)
		src := blockTrace(blocks)
		var sparseP, sketchP *profile.Profile
		b.Run("sparse", func(b *testing.B) {
			b.SetBytes(int64(len(blocks)) * 8)
			for i := 0; i < b.N; i++ {
				var err error
				sparseP, err = profile.BuildStream(context.Background(), src, 1, profile.MaxFlatBits+1,
					benchProfileCacheBlocks, profile.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("capped", func(b *testing.B) {
			b.SetBytes(int64(len(blocks)) * 8)
			for i := 0; i < b.N; i++ {
				var err error
				sketchP, err = profile.BuildStream(context.Background(), src, 1, n, benchProfileCacheBlocks,
					profile.Options{Sketch: true})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		if sparseP == nil || sketchP == nil {
			b.Skip("run the sparse and capped sub-benchmarks first")
		}
		support, violations := 0, 0
		sparseP.ForEachNonZero(func(v gf2.Vec, c uint64) {
			support++
			if est := sketchP.At(v); est > c || est+sketchP.Slack < c {
				violations++
			}
		})
		kres = &benchSketchResult{
			Accesses:    len(blocks),
			Entries:     profile.SketchEntries,
			Slack:       sketchP.Slack,
			TotalPairs:  sketchP.TotalPairs,
			Support:     support,
			Violations:  violations,
			SparseBytes: sparseP.HistogramBytes(),
			SketchBytes: sketchP.HistogramBytes(),
			MemoryRatio: float64(sparseP.HistogramBytes()) / float64(sketchP.HistogramBytes()),
			WithinBound: violations == 0,
		}
		b.ReportMetric(kres.MemoryRatio, "memory-ratio")
		b.ReportMetric(float64(violations), "bound-violations")
	})

	b.Run("emit-baseline", func(b *testing.B) {
		if len(sampledByK) == 0 && kres == nil {
			b.Skip("run the sampled or sketch sub-benchmarks first")
		}
		var sampled []benchSampledResult
		for _, k := range []uint64{4, 16, 64} {
			if row, ok := sampledByK[k]; ok {
				sampled = append(sampled, row)
			}
		}
		updateBenchProfile(b, func(f *benchProfileFile) {
			if sampled != nil {
				f.Sampled = sampled
			}
			if kres != nil {
				f.Sketch = kres
			}
		})
	})
}

// BenchmarkTune measures the end-to-end pipeline — Fig. 1 profiling,
// §3.2 search, exact validation — on a 10M-access synthetic trace
// through Tune with a live context and no sink.
func BenchmarkTune(b *testing.B) {
	const accesses = 10_000_000
	tr := &trace.Trace{Name: "pipeline-bench"}
	for _, blk := range synthProfileBlocks(accesses) {
		tr.Append(blk*4, trace.Read)
	}
	cfg := core.Config{
		CacheBytes: 4096,
		BlockBytes: 4,
		AddrBits:   16,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2,
	}
	b.Run("ctx", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < b.N; i++ {
			if _, err := core.Tune(ctx, tr, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
