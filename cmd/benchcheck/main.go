// Command benchcheck validates a BENCH_profile.json emitted by the
// profiling benchmarks (BenchmarkBuild / BenchmarkBuildParallel in
// bench_test.go), a BENCH_serve.json emitted by BenchmarkServe
// (bench_serve_test.go), or a BENCH_crack.json emitted by
// BenchmarkCrack (bench_crack_test.go): it fails with a non-zero exit
// on malformed JSON, missing sections, or nonsensical numbers, so CI
// catches a benchmark that silently emitted garbage. The file kind is
// routed on the "benchmark" field, so all spellings work:
//
// Usage:
//
//	benchcheck [-perf] [BENCH_profile.json]
//	benchcheck BENCH_serve.json
//	benchcheck BENCH_crack.json
//
// Crack baselines carry one unconditional invariant (no -perf needed):
// on every recorded geometry the group-testing strategy must have
// recovered the planted function with strictly fewer logical oracle
// queries than naive per-bit probing, with the recovery verified
// against the plant — probe counts are deterministic, so a loss there
// is an algorithmic regression, not noise. The schedule must also keep
// at least one rank-deficient plant so that coverage cannot silently
// disappear.
//
// With -perf it additionally enforces the performance contracts.
// For serve baselines that is the §16 overload-control contract —
// enabling Shed may cost at most 5% on the uncontended ingest fast
// path (there is no shard-scaling contract, since shard scaling
// depends on the runner's core count). For profile baselines:
//
//   - Sequential (PR 5): the capacity-heavy workload must run at least
//     2x faster than the pre-overhaul reference builder and no workload
//     may regress more than 5% against it.
//   - Parallel: the baseline must come from a multi-core runner
//     (num_cpu >= 2 — a single-core recording cannot witness parallel
//     speedup and is rejected as stale), each workload's speedup_vs_1
//     must be monotone non-decreasing in the worker count up to num_cpu
//     (3% tolerance for measurement noise), and the capacity-heavy
//     workload must reach at least 1.6x at 4 workers when the runner
//     has 4 or more CPUs.
//   - Out-of-core (PR 10, DESIGN.md §17): every sampled row must keep
//     the exact Eq. 4 value inside its confidence margin with the k=16 build at
//     >= 4x the exact build, and the sketch at its default entry cap
//     must spend at least 10x less histogram memory than the sparse map
//     with no support vector outside its deterministic Misra–Gries
//     bound (violations == 0).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// The mirror of bench_test.go's benchProfileFile schema. Unknown fields
// are rejected so a drifting emitter fails loudly here instead of
// producing a file nobody validates.
type benchFile struct {
	Benchmark   string        `json:"benchmark"`
	N           int           `json:"n"`
	CacheBlocks int           `json:"cache_blocks"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	Sequential  []seqResult   `json:"sequential"`
	Parallel    []paraResult  `json:"parallel"`
	Sampled     []sampledRow  `json:"sampled"`
	Sketch      *sketchResult `json:"sketch"`
}

type seqResult struct {
	Workload       string  `json:"workload"`
	Accesses       int     `json:"accesses"`
	NewAccessPerMs float64 `json:"new_accesses_per_ms"`
	RefAccessPerMs float64 `json:"ref_accesses_per_ms"`
	SpeedupVsRef   float64 `json:"speedup_vs_ref"`
}

type paraResult struct {
	Workload    string  `json:"workload"`
	Workers     int     `json:"workers"`
	AccessPerMs float64 `json:"accesses_per_ms"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
}

type sampledRow struct {
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

type sketchResult struct {
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

// The mirror of bench_serve_test.go's BENCH_serve.json schema.
type serveFile struct {
	Benchmark     string         `json:"benchmark"`
	Accesses      int            `json:"accesses"`
	Clients       int            `json:"clients"`
	CacheBytes    int            `json:"cache_bytes"`
	AddrBits      int            `json:"addr_bits"`
	GoVersion     string         `json:"go_version"`
	NumCPU        int            `json:"num_cpu"`
	Ingest        []ingestPoint  `json:"ingest"`
	SwapLatencyMs float64        `json:"swap_latency_ms"`
	ShedOverhead  *shedOverhead  `json:"shed_overhead"`
	Recovery      *recoveryPoint `json:"recovery"`
}

type ingestPoint struct {
	Shards      int     `json:"shards"`
	AccessPerMs float64 `json:"accesses_per_ms"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
}

type shedOverhead struct {
	BlockingAccessPerMs float64 `json:"blocking_accesses_per_ms"`
	ShedAccessPerMs     float64 `json:"shed_accesses_per_ms"`
	OverheadPct         float64 `json:"overhead_pct"`
}

type recoveryPoint struct {
	Restarts        uint64  `json:"restarts"`
	RecoveryMs      float64 `json:"recovery_ms"`
	ResumedAccesses uint64  `json:"resumed_accesses"`
}

// The mirror of bench_crack_test.go's BENCH_crack.json schema.
type crackFile struct {
	Benchmark  string     `json:"benchmark"`
	Oracle     string     `json:"oracle"`
	GoVersion  string     `json:"go_version"`
	NumCPU     int        `json:"num_cpu"`
	Geometries []crackRow `json:"geometries"`
}

type crackRow struct {
	N              int           `json:"n"`
	M              int           `json:"m"`
	Rank           int           `json:"rank"`
	Naive          crackStrategy `json:"naive"`
	Group          crackStrategy `json:"group"`
	QueryReduction float64       `json:"query_reduction"`
	Verified       bool          `json:"verified"`
}

type crackStrategy struct {
	LogicalQueries uint64  `json:"logical_queries"`
	Probes         uint64  `json:"probes"`
	Accesses       uint64  `json:"accesses"`
	MsPerCrack     float64 `json:"ms_per_crack"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	perf := flag.Bool("perf", false, "also enforce the hot-path speedup contract (capacity-heavy >= 2x, no workload below 0.95x)")
	flag.Parse()
	path := "BENCH_profile.json"
	if flag.NArg() > 1 {
		fail("usage: benchcheck [-perf] [BENCH_profile.json]")
	}
	if flag.NArg() == 1 {
		path = flag.Arg(0)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	// Route on the benchmark name: the serve baseline has its own shape.
	var probe struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		fail("%s: malformed JSON: %v", path, err)
	}
	if probe.Benchmark == "BenchmarkCrack" {
		var f crackFile
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&f); err != nil {
			fail("%s: malformed JSON: %v", path, err)
		}
		if *perf {
			fail("%s: -perf applies to profile baselines only", path)
		}
		if err := validateCrack(&f); err != nil {
			fail("%s: %v", path, err)
		}
		fmt.Printf("benchcheck: %s OK (%d geometries, group testing %.1f-%.1fx fewer queries)\n",
			path, len(f.Geometries), minReduction(f.Geometries), maxReduction(f.Geometries))
		return
	}
	if probe.Benchmark == "BenchmarkServe" {
		var f serveFile
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&f); err != nil {
			fail("%s: malformed JSON: %v", path, err)
		}
		if err := validateServe(&f, *perf); err != nil {
			fail("%s: %v", path, err)
		}
		fmt.Printf("benchcheck: %s OK (%d ingest points, swap %.1f ms, shed overhead %.1f%%, recovery %.1f ms)\n",
			path, len(f.Ingest), f.SwapLatencyMs, f.ShedOverhead.OverheadPct, f.Recovery.RecoveryMs)
		return
	}
	var f benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		fail("%s: malformed JSON: %v", path, err)
	}
	if err := validate(&f, *perf); err != nil {
		fail("%s: %v", path, err)
	}
	fmt.Printf("benchcheck: %s OK (%d sequential workloads, %d parallel points, %d sampled rows, sketch %.1fx smaller)\n",
		path, len(f.Sequential), len(f.Parallel), len(f.Sampled), f.Sketch.MemoryRatio)
}

// validateCrack holds a BENCH_crack.json to its invariants: sane
// geometries (at least one of them rank-deficient), verified
// recoveries, positive probe costs consistent across the two counters
// (logical <= probes, accesses >= probes since every probe touches
// memory), a query_reduction that matches the recorded counts, and —
// the headline — group testing strictly beating naive probing on
// logical queries for every geometry.
func validateCrack(f *crackFile) error {
	if f.Benchmark != "BenchmarkCrack" {
		return fmt.Errorf("benchmark = %q, want BenchmarkCrack", f.Benchmark)
	}
	if f.Oracle != "hitmiss" && f.Oracle != "evict" {
		return fmt.Errorf("oracle = %q, want hitmiss or evict", f.Oracle)
	}
	if f.GoVersion == "" {
		return fmt.Errorf("empty go_version")
	}
	if f.NumCPU <= 0 {
		return fmt.Errorf("num_cpu = %d out of range", f.NumCPU)
	}
	if len(f.Geometries) == 0 {
		return fmt.Errorf("no geometries — run BenchmarkCrack with -benchtime=1x first")
	}
	deficient := false
	seen := map[string]bool{}
	for i, g := range f.Geometries {
		tag := fmt.Sprintf("geometries[%d] (n=%d m=%d rank=%d)", i, g.N, g.M, g.Rank)
		if g.N < 2 || g.N > 64 || g.M < 1 || g.M >= g.N {
			return fmt.Errorf("%s: need 2 <= n <= 64 and 1 <= m < n", tag)
		}
		if g.Rank < 1 || g.Rank > g.M {
			return fmt.Errorf("%s: rank outside [1, m]", tag)
		}
		key := fmt.Sprintf("%d/%d/%d", g.N, g.M, g.Rank)
		if seen[key] {
			return fmt.Errorf("%s: duplicate geometry", tag)
		}
		seen[key] = true
		if g.Rank < g.M {
			deficient = true
		}
		if !g.Verified {
			return fmt.Errorf("%s: recovery not verified against the plant", tag)
		}
		for _, s := range []struct {
			name string
			r    crackStrategy
		}{{"naive", g.Naive}, {"group", g.Group}} {
			if s.r.LogicalQueries == 0 || s.r.Probes == 0 || s.r.Accesses == 0 {
				return fmt.Errorf("%s: %s has zero probe counts", tag, s.name)
			}
			if s.r.Probes < s.r.LogicalQueries {
				return fmt.Errorf("%s: %s issued %d probes for %d logical queries", tag, s.name, s.r.Probes, s.r.LogicalQueries)
			}
			if s.r.Accesses < s.r.Probes {
				return fmt.Errorf("%s: %s recorded %d accesses for %d probes", tag, s.name, s.r.Accesses, s.r.Probes)
			}
			if s.r.MsPerCrack <= 0 {
				return fmt.Errorf("%s: %s ms_per_crack = %.3f", tag, s.name, s.r.MsPerCrack)
			}
		}
		if g.Group.LogicalQueries >= g.Naive.LogicalQueries {
			return fmt.Errorf("%s: group testing used %d logical queries, naive %d — the reduction is the point",
				tag, g.Group.LogicalQueries, g.Naive.LogicalQueries)
		}
		want := float64(g.Naive.LogicalQueries) / float64(g.Group.LogicalQueries)
		if g.QueryReduction < want*0.99 || g.QueryReduction > want*1.01 {
			return fmt.Errorf("%s: query_reduction = %.3f does not match counts (%.3f)", tag, g.QueryReduction, want)
		}
	}
	if !deficient {
		return fmt.Errorf("no rank-deficient geometry in the schedule")
	}
	return nil
}

func minReduction(rows []crackRow) float64 {
	out := rows[0].QueryReduction
	for _, r := range rows[1:] {
		if r.QueryReduction < out {
			out = r.QueryReduction
		}
	}
	return out
}

func maxReduction(rows []crackRow) float64 {
	out := rows[0].QueryReduction
	for _, r := range rows[1:] {
		if r.QueryReduction > out {
			out = r.QueryReduction
		}
	}
	return out
}

// validateServe holds a BENCH_serve.json to structural sanity: real
// geometry, non-empty shard sweep anchored at shards=1, positive
// throughput everywhere, a positive swap latency, a shed-overhead
// comparison whose percentage matches its own rates, and a recovery
// row witnessing at least one supervised restart. There is no
// shard-scaling contract — ingest is bound by the clients and the
// runner's cores, not the shard count alone — but -perf enforces the
// §16 overload-control contract: enabling Shed may cost at most 5% on
// the uncontended ingest fast path.
func validateServe(f *serveFile, perf bool) error {
	if f.Benchmark != "BenchmarkServe" {
		return fmt.Errorf("benchmark = %q, want BenchmarkServe", f.Benchmark)
	}
	if f.Accesses <= 0 {
		return fmt.Errorf("accesses = %d out of range", f.Accesses)
	}
	if f.Clients <= 0 {
		return fmt.Errorf("clients = %d out of range", f.Clients)
	}
	if f.CacheBytes <= 0 {
		return fmt.Errorf("cache_bytes = %d out of range", f.CacheBytes)
	}
	if f.AddrBits <= 0 || f.AddrBits > 64 {
		return fmt.Errorf("addr_bits = %d out of range", f.AddrBits)
	}
	if f.GoVersion == "" {
		return fmt.Errorf("empty go_version")
	}
	if f.NumCPU <= 0 {
		return fmt.Errorf("num_cpu = %d out of range", f.NumCPU)
	}
	if len(f.Ingest) == 0 {
		return fmt.Errorf("no ingest section — run BenchmarkServe with -benchtime=1x first")
	}
	seen := map[int]bool{}
	anchored := false
	for i, p := range f.Ingest {
		if p.Shards <= 0 || p.Shards&(p.Shards-1) != 0 {
			return fmt.Errorf("ingest[%d]: shards = %d not a positive power of two", i, p.Shards)
		}
		if seen[p.Shards] {
			return fmt.Errorf("ingest[%d]: duplicate shards=%d point", i, p.Shards)
		}
		seen[p.Shards] = true
		if p.AccessPerMs <= 0 {
			return fmt.Errorf("ingest[shards=%d]: accesses_per_ms = %.3f", p.Shards, p.AccessPerMs)
		}
		if p.SpeedupVs1 <= 0 {
			return fmt.Errorf("ingest[shards=%d]: speedup_vs_1 = %.3f", p.Shards, p.SpeedupVs1)
		}
		if p.Shards == 1 {
			anchored = true
			if p.SpeedupVs1 < 0.999 || p.SpeedupVs1 > 1.001 {
				return fmt.Errorf("ingest[shards=1]: speedup_vs_1 = %.3f, want 1", p.SpeedupVs1)
			}
		}
	}
	if !anchored {
		return fmt.Errorf("no shards=1 row to anchor speedup_vs_1")
	}
	if f.SwapLatencyMs <= 0 {
		return fmt.Errorf("swap_latency_ms = %.3f out of range", f.SwapLatencyMs)
	}
	if f.ShedOverhead == nil {
		return fmt.Errorf("no shed_overhead section — rerecord with the shed-overhead sub-benchmark")
	}
	so := f.ShedOverhead
	if so.BlockingAccessPerMs <= 0 || so.ShedAccessPerMs <= 0 {
		return fmt.Errorf("shed_overhead: non-positive throughput (blocking %.3f, shed %.3f)",
			so.BlockingAccessPerMs, so.ShedAccessPerMs)
	}
	want := (so.BlockingAccessPerMs/so.ShedAccessPerMs - 1) * 100
	if diff := so.OverheadPct - want; diff < -0.5 || diff > 0.5 {
		return fmt.Errorf("shed_overhead: overhead_pct = %.3f does not match its rates (%.3f)",
			so.OverheadPct, want)
	}
	if f.Recovery == nil {
		return fmt.Errorf("no recovery section — rerecord with the recovery sub-benchmark")
	}
	if f.Recovery.Restarts == 0 {
		return fmt.Errorf("recovery: zero restarts — the planted fault never fired")
	}
	if f.Recovery.RecoveryMs <= 0 {
		return fmt.Errorf("recovery: recovery_ms = %.3f out of range", f.Recovery.RecoveryMs)
	}
	if f.Recovery.ResumedAccesses == 0 {
		return fmt.Errorf("recovery: resumed_accesses = 0 — the healed shard served nothing")
	}
	if perf && so.OverheadPct > 5 {
		return fmt.Errorf("perf contract: shed fast path costs %.2f%% over blocking ingest (> 5%%)",
			so.OverheadPct)
	}
	return nil
}

func validate(f *benchFile, perf bool) error {
	if f.Benchmark == "" {
		return fmt.Errorf("empty benchmark name")
	}
	if f.N <= 0 || f.N > 64 {
		return fmt.Errorf("n = %d out of range", f.N)
	}
	if f.CacheBlocks <= 0 {
		return fmt.Errorf("cache_blocks = %d out of range", f.CacheBlocks)
	}
	if f.GoVersion == "" {
		return fmt.Errorf("empty go_version")
	}
	if f.NumCPU <= 0 {
		return fmt.Errorf("num_cpu = %d out of range", f.NumCPU)
	}
	if len(f.Sequential) == 0 {
		return fmt.Errorf("no sequential section — run BenchmarkBuild with -benchtime=1x first")
	}
	seen := map[string]bool{}
	for i, s := range f.Sequential {
		if s.Workload == "" {
			return fmt.Errorf("sequential[%d]: empty workload name", i)
		}
		if seen[s.Workload] {
			return fmt.Errorf("sequential[%d]: duplicate workload %q", i, s.Workload)
		}
		seen[s.Workload] = true
		if s.Accesses <= 0 {
			return fmt.Errorf("sequential[%q]: accesses = %d", s.Workload, s.Accesses)
		}
		if s.NewAccessPerMs <= 0 || s.RefAccessPerMs <= 0 {
			return fmt.Errorf("sequential[%q]: non-positive throughput (new %.3f, ref %.3f)",
				s.Workload, s.NewAccessPerMs, s.RefAccessPerMs)
		}
		if s.SpeedupVsRef <= 0 {
			return fmt.Errorf("sequential[%q]: speedup_vs_ref = %.3f", s.Workload, s.SpeedupVsRef)
		}
	}
	if len(f.Parallel) == 0 {
		return fmt.Errorf("no parallel section — run BenchmarkBuildParallel with -benchtime=1x first")
	}
	byWorkload := map[string][]paraResult{}
	seenPoint := map[string]bool{}
	for i, p := range f.Parallel {
		if p.Workload == "" {
			return fmt.Errorf("parallel[%d]: empty workload tag", i)
		}
		if p.Workers <= 0 {
			return fmt.Errorf("parallel[%d]: workers = %d", i, p.Workers)
		}
		key := fmt.Sprintf("%s/%d", p.Workload, p.Workers)
		if seenPoint[key] {
			return fmt.Errorf("parallel[%d]: duplicate point %s", i, key)
		}
		seenPoint[key] = true
		if p.AccessPerMs <= 0 {
			return fmt.Errorf("parallel[%s]: accesses_per_ms = %.3f", key, p.AccessPerMs)
		}
		if p.SpeedupVs1 <= 0 {
			return fmt.Errorf("parallel[%s]: speedup_vs_1 = %.3f", key, p.SpeedupVs1)
		}
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	for name, rows := range byWorkload {
		sort.Slice(rows, func(i, j int) bool { return rows[i].Workers < rows[j].Workers })
		byWorkload[name] = rows
		if rows[0].Workers != 1 {
			return fmt.Errorf("parallel[%q]: no workers=1 row to anchor speedup_vs_1", name)
		}
		if s := rows[0].SpeedupVs1; s < 0.999 || s > 1.001 {
			return fmt.Errorf("parallel[%q]: workers=1 speedup_vs_1 = %.3f, want 1", name, s)
		}
	}
	if err := validateOutOfCore(f); err != nil {
		return err
	}
	if !perf {
		return nil
	}
	if !seen["capacity-heavy"] {
		return fmt.Errorf("perf contract: no capacity-heavy workload in sequential section")
	}
	for _, s := range f.Sequential {
		if s.Workload == "capacity-heavy" && s.SpeedupVsRef < 2 {
			return fmt.Errorf("perf contract: capacity-heavy speedup %.3fx < 2x", s.SpeedupVsRef)
		}
		if s.SpeedupVsRef < 0.95 {
			return fmt.Errorf("perf contract: %q regresses to %.3fx (< 0.95x) of the reference",
				s.Workload, s.SpeedupVsRef)
		}
	}
	if err := validateParallelPerf(f, byWorkload); err != nil {
		return err
	}
	return validateOutOfCorePerf(f)
}

// validateOutOfCore holds the §17 sections (sampled profiling, capped
// sketch) to structural sanity: every section present, positive rates
// and sizes, ratios that match their own inputs, within_bound flags
// consistent with the recorded numbers, and a sketch slack its own
// pruning could have produced.
func validateOutOfCore(f *benchFile) error {
	if len(f.Sampled) == 0 {
		return fmt.Errorf("no sampled section — run BenchmarkBuildOutOfCore with -benchtime=1x first")
	}
	prevK := uint64(1)
	for i, s := range f.Sampled {
		if s.K <= prevK {
			return fmt.Errorf("sampled[%d]: k = %d not ascending (after k=%d)", i, s.K, prevK)
		}
		prevK = s.K
		if s.Accesses <= 0 {
			return fmt.Errorf("sampled[k=%d]: accesses = %d", s.K, s.Accesses)
		}
		if s.ExactPerMs <= 0 || s.SampledPerMs <= 0 {
			return fmt.Errorf("sampled[k=%d]: non-positive throughput (exact %.3f, sampled %.3f)",
				s.K, s.ExactPerMs, s.SampledPerMs)
		}
		want := s.SampledPerMs / s.ExactPerMs
		if s.SpeedupVsExact < want*0.99 || s.SpeedupVsExact > want*1.01 {
			return fmt.Errorf("sampled[k=%d]: speedup_vs_exact = %.3f does not match its rates (%.3f)",
				s.K, s.SpeedupVsExact, want)
		}
		if s.Estimate == 0 || s.Exact == 0 {
			return fmt.Errorf("sampled[k=%d]: zero Eq. 4 estimate (estimate %d, exact %d)", s.K, s.Estimate, s.Exact)
		}
		if s.Margin == 0 {
			return fmt.Errorf("sampled[k=%d]: margin = 0 on a sampled row", s.K)
		}
		diff := int64(s.Estimate) - int64(s.Exact)
		if diff < 0 {
			diff = -diff
		}
		if got := uint64(diff) <= s.Margin; got != s.WithinBound {
			return fmt.Errorf("sampled[k=%d]: within_bound = %v contradicts |%d - %d| vs margin %d",
				s.K, s.WithinBound, s.Estimate, s.Exact, s.Margin)
		}
	}
	if f.Sketch == nil {
		return fmt.Errorf("no sketch section — run BenchmarkBuildOutOfCore with -benchtime=1x first")
	}
	k := f.Sketch
	if k.Accesses <= 0 {
		return fmt.Errorf("sketch: accesses = %d out of range", k.Accesses)
	}
	if k.Entries <= 0 {
		return fmt.Errorf("sketch: entries = %d not positive", k.Entries)
	}
	// Each unit of slack pruned entries+1 counts off the histogram.
	if k.Slack*uint64(k.Entries+1) > k.TotalPairs {
		return fmt.Errorf("sketch: slack %d × (entries %d + 1) exceeds total_pairs %d",
			k.Slack, k.Entries, k.TotalPairs)
	}
	if k.Support <= 0 {
		return fmt.Errorf("sketch: support = %d — an empty differential witnesses nothing", k.Support)
	}
	if k.Violations < 0 || k.Violations > k.Support {
		return fmt.Errorf("sketch: violations = %d outside [0, %d]", k.Violations, k.Support)
	}
	if k.WithinBound != (k.Violations == 0) {
		return fmt.Errorf("sketch: within_bound = %v contradicts %d violations", k.WithinBound, k.Violations)
	}
	if k.SparseBytes <= 0 || k.SketchBytes <= 0 {
		return fmt.Errorf("sketch: non-positive sizes (sparse %d, sketch %d)", k.SparseBytes, k.SketchBytes)
	}
	wantRatio := float64(k.SparseBytes) / float64(k.SketchBytes)
	if k.MemoryRatio < wantRatio*0.99 || k.MemoryRatio > wantRatio*1.01 {
		return fmt.Errorf("sketch: memory_ratio = %.3f does not match its byte counts (%.3f)",
			k.MemoryRatio, wantRatio)
	}
	return nil
}

// validateOutOfCorePerf enforces the §17 half of the -perf contract:
// every sampled row keeps the exact value inside its margin with k=16
// at >= 4x the exact build, and the sketch spends >= 10x less histogram
// memory than the sparse map with no count outside its slack.
func validateOutOfCorePerf(f *benchFile) error {
	k16 := false
	for _, s := range f.Sampled {
		if !s.WithinBound {
			return fmt.Errorf("perf contract: sampled k=%d estimate %d missed the exact %d by more than its margin %d",
				s.K, s.Estimate, s.Exact, s.Margin)
		}
		if s.K == 16 {
			k16 = true
			if s.SpeedupVsExact < 4 {
				return fmt.Errorf("perf contract: sampled k=16 speedup %.3fx < 4x over the exact build",
					s.SpeedupVsExact)
			}
		}
	}
	if !k16 {
		return fmt.Errorf("perf contract: no k=16 sampled row")
	}
	if f.Sketch.MemoryRatio < 10 {
		return fmt.Errorf("perf contract: sketch memory ratio %.3fx < 10x under the sparse map", f.Sketch.MemoryRatio)
	}
	if f.Sketch.Violations != 0 {
		return fmt.Errorf("perf contract: sketch counts outside [true − slack, true] on %d of %d support vectors",
			f.Sketch.Violations, f.Sketch.Support)
	}
	return nil
}

// monotoneTolerance absorbs run-to-run measurement noise in the
// monotone-speedup rule: adding workers (up to the core count) may not
// lose more than 3% over the previous point.
const monotoneTolerance = 0.97

// validateParallelPerf enforces the multi-worker half of the -perf
// contract against the workload-grouped parallel rows (already sorted
// by worker count, each anchored at workers=1).
func validateParallelPerf(f *benchFile, byWorkload map[string][]paraResult) error {
	if f.NumCPU < 2 {
		return fmt.Errorf("perf contract: parallel baseline recorded with num_cpu = %d — "+
			"a single-core recording cannot witness parallel speedup; rerecord on a multi-core runner",
			f.NumCPU)
	}
	if byWorkload["capacity-heavy"] == nil {
		return fmt.Errorf("perf contract: no capacity-heavy workload in parallel section")
	}
	for name, rows := range byWorkload {
		prev := rows[0]
		for _, p := range rows[1:] {
			if p.Workers > f.NumCPU {
				// Oversubscribed points are informational: speedup may
				// legitimately flatten or dip past the core count.
				break
			}
			if p.SpeedupVs1 < prev.SpeedupVs1*monotoneTolerance {
				return fmt.Errorf("perf contract: %q speedup not monotone: %.3fx at %d workers after %.3fx at %d",
					name, p.SpeedupVs1, p.Workers, prev.SpeedupVs1, prev.Workers)
			}
			prev = p
		}
	}
	if f.NumCPU >= 4 {
		ok := false
		for _, p := range byWorkload["capacity-heavy"] {
			if p.Workers == 4 {
				ok = true
				if p.SpeedupVs1 < 1.6 {
					return fmt.Errorf("perf contract: capacity-heavy speedup %.3fx at 4 workers < 1.6x",
						p.SpeedupVs1)
				}
			}
		}
		if !ok {
			return fmt.Errorf("perf contract: capacity-heavy has no workers=4 row on a %d-CPU runner", f.NumCPU)
		}
	}
	return nil
}
