package main

import (
	"strings"
	"testing"
)

// goodFile returns a baseline that passes every rule, for the negative
// tests to perturb.
func goodFile() *benchFile {
	return &benchFile{
		Benchmark:   "BenchmarkBuild+BenchmarkBuildParallel",
		N:           16,
		CacheBlocks: 1024,
		GoVersion:   "go1.24.0",
		NumCPU:      8,
		Sequential: []seqResult{
			{Workload: "capacity-heavy", Accesses: 300000, NewAccessPerMs: 9000, RefAccessPerMs: 3000, SpeedupVsRef: 3.0},
			{Workload: "mixed", Accesses: 1000000, NewAccessPerMs: 8000, RefAccessPerMs: 7000, SpeedupVsRef: 1.14},
		},
		Parallel: []paraResult{
			{Workload: "capacity-heavy", Workers: 1, AccessPerMs: 9000, SpeedupVs1: 1.0},
			{Workload: "capacity-heavy", Workers: 2, AccessPerMs: 16000, SpeedupVs1: 1.78},
			{Workload: "capacity-heavy", Workers: 4, AccessPerMs: 27000, SpeedupVs1: 3.0},
			{Workload: "capacity-heavy", Workers: 8, AccessPerMs: 41000, SpeedupVs1: 4.56},
			{Workload: "mixed", Workers: 1, AccessPerMs: 8000, SpeedupVs1: 1.0},
			{Workload: "mixed", Workers: 2, AccessPerMs: 13000, SpeedupVs1: 1.63},
			{Workload: "mixed", Workers: 4, AccessPerMs: 21000, SpeedupVs1: 2.63},
			{Workload: "mixed", Workers: 8, AccessPerMs: 30000, SpeedupVs1: 3.75},
		},
		Sampled: []sampledRow{
			{K: 4, Accesses: 600000, ExactPerMs: 700, SampledPerMs: 2100, SpeedupVsExact: 3.0,
				Estimate: 301200, Exact: 300000, Margin: 2200, WithinBound: true},
			{K: 16, Accesses: 600000, ExactPerMs: 700, SampledPerMs: 4900, SpeedupVsExact: 7.0,
				Estimate: 296000, Exact: 300000, Margin: 4300, WithinBound: true},
			{K: 64, Accesses: 600000, ExactPerMs: 700, SampledPerMs: 8400, SpeedupVsExact: 12.0,
				Estimate: 310000, Exact: 300000, Margin: 10100, WithinBound: true},
		},
		Sketch: &sketchResult{
			Accesses: 160000, Entries: 24576, Slack: 2300, TotalPairs: 57000000,
			Support: 250000, Violations: 0,
			SparseBytes: 12000000, SketchBytes: 24576 * 48,
			MemoryRatio: 12000000.0 / (24576 * 48), WithinBound: true,
		},
	}
}

// goodServeFile returns a serve baseline that passes every rule.
func goodServeFile() *serveFile {
	return &serveFile{
		Benchmark:  "BenchmarkServe",
		Accesses:   2000000,
		Clients:    8,
		CacheBytes: 4096,
		AddrBits:   16,
		GoVersion:  "go1.24.0",
		NumCPU:     8,
		Ingest: []ingestPoint{
			{Shards: 1, AccessPerMs: 1500, SpeedupVs1: 1.0},
			{Shards: 4, AccessPerMs: 4100, SpeedupVs1: 2.73},
			{Shards: 8, AccessPerMs: 5900, SpeedupVs1: 3.93},
		},
		SwapLatencyMs: 850.5,
		ShedOverhead: &shedOverhead{
			BlockingAccessPerMs: 4100,
			ShedAccessPerMs:     4018,
			OverheadPct:         (4100.0/4018 - 1) * 100,
		},
		Recovery: &recoveryPoint{Restarts: 1, RecoveryMs: 3.2, ResumedAccesses: 69632},
	}
}

func TestValidateAcceptsGoodBaseline(t *testing.T) {
	for _, perf := range []bool{false, true} {
		if err := validate(goodFile(), perf); err != nil {
			t.Fatalf("perf=%v: %v", perf, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		perf    bool
		mutate  func(*benchFile)
		wantSub string
	}{
		{
			name: "single-core parallel baseline",
			perf: true,
			mutate: func(f *benchFile) {
				f.NumCPU = 1
				// A 1-CPU recording has flat speedups — plausible-looking,
				// but the num_cpu rule must reject it before the curve is
				// even examined.
				for i := range f.Parallel {
					f.Parallel[i].SpeedupVs1 = 1.0
					f.Parallel[i].AccessPerMs = f.Parallel[0].AccessPerMs
				}
			},
			wantSub: "num_cpu = 1",
		},
		{
			name: "non-monotone speedup within core count",
			perf: true,
			mutate: func(f *benchFile) {
				f.Parallel[2].SpeedupVs1 = 1.5 // 4 workers slower than 2
			},
			wantSub: "not monotone",
		},
		{
			name: "monotone tolerance absorbs small dips",
			perf: true,
			mutate: func(f *benchFile) {
				f.Parallel[3].SpeedupVs1 = f.Parallel[2].SpeedupVs1 * 0.99
			},
			wantSub: "", // within the 3% noise band: accepted
		},
		{
			name: "oversubscribed dip is informational",
			perf: true,
			mutate: func(f *benchFile) {
				f.NumCPU = 4
				f.Parallel[3].SpeedupVs1 = 2.0 // 8 workers > num_cpu may dip
				f.Parallel[7].SpeedupVs1 = 2.0
			},
			wantSub: "",
		},
		{
			name: "capacity-heavy below 1.6x at 4 workers",
			perf: true,
			mutate: func(f *benchFile) {
				f.Parallel[1].SpeedupVs1 = 1.1
				f.Parallel[2].SpeedupVs1 = 1.2
				f.Parallel[3].SpeedupVs1 = 1.3
			},
			wantSub: "< 1.6x",
		},
		{
			name: "missing workers=1 anchor",
			perf: false,
			mutate: func(f *benchFile) {
				f.Parallel = f.Parallel[1:4]
			},
			wantSub: "no workers=1 row",
		},
		{
			name: "workers=1 speedup not 1",
			perf: false,
			mutate: func(f *benchFile) {
				f.Parallel[0].SpeedupVs1 = 1.2
			},
			wantSub: "want 1",
		},
		{
			name: "untagged parallel row",
			perf: false,
			mutate: func(f *benchFile) {
				f.Parallel[0].Workload = ""
			},
			wantSub: "empty workload tag",
		},
		{
			name: "duplicate parallel point",
			perf: false,
			mutate: func(f *benchFile) {
				f.Parallel[1] = f.Parallel[0]
			},
			wantSub: "duplicate point",
		},
		{
			name: "missing capacity-heavy parallel rows",
			perf: true,
			mutate: func(f *benchFile) {
				f.Parallel = f.Parallel[4:]
			},
			wantSub: "no capacity-heavy workload in parallel section",
		},
		{
			name: "no workers=4 row on a multi-core runner",
			perf: true,
			mutate: func(f *benchFile) {
				f.Parallel = append(f.Parallel[:2], f.Parallel[3:]...)
			},
			wantSub: "no workers=4 row",
		},
		{
			name: "sequential contract still enforced",
			perf: true,
			mutate: func(f *benchFile) {
				f.Sequential[0].SpeedupVsRef = 1.5
			},
			wantSub: "< 2x",
		},
		{
			name:    "missing sampled section",
			mutate:  func(f *benchFile) { f.Sampled = nil },
			wantSub: "no sampled section",
		},
		{
			name:    "sampled k not ascending",
			mutate:  func(f *benchFile) { f.Sampled[1].K = 4 },
			wantSub: "not ascending",
		},
		{
			name:    "sampled row with zero margin",
			mutate:  func(f *benchFile) { f.Sampled[0].Margin = 0 },
			wantSub: "margin = 0",
		},
		{
			name: "within_bound contradicts the recorded numbers",
			mutate: func(f *benchFile) {
				f.Sampled[1].Estimate = f.Sampled[1].Exact + f.Sampled[1].Margin + 1
			},
			wantSub: "contradicts",
		},
		{
			name: "out-of-bound sampled estimate fails -perf",
			perf: true,
			mutate: func(f *benchFile) {
				f.Sampled[1].Estimate = f.Sampled[1].Exact + f.Sampled[1].Margin + 1
				f.Sampled[1].WithinBound = false
			},
			wantSub: "more than its margin",
		},
		{
			name: "missing k=16 sampled row fails -perf",
			perf: true,
			mutate: func(f *benchFile) {
				f.Sampled = append(f.Sampled[:1], f.Sampled[2:]...)
			},
			wantSub: "no k=16 sampled row",
		},
		{
			name: "sampled k=16 below 4x fails -perf",
			perf: true,
			mutate: func(f *benchFile) {
				f.Sampled[1].SampledPerMs = 2100
				f.Sampled[1].SpeedupVsExact = 3.0
			},
			wantSub: "< 4x",
		},
		{
			name:    "missing sketch section",
			mutate:  func(f *benchFile) { f.Sketch = nil },
			wantSub: "no sketch section",
		},
		{
			name:    "sketch entries not positive",
			mutate:  func(f *benchFile) { f.Sketch.Entries = 0 },
			wantSub: "entries = 0 not positive",
		},
		{
			name:    "sketch slack beyond what pruning removed",
			mutate:  func(f *benchFile) { f.Sketch.Slack = 57000000/24577 + 1 },
			wantSub: "exceeds total_pairs",
		},
		{
			name:    "sketch within_bound contradicts its violations",
			mutate:  func(f *benchFile) { f.Sketch.Violations = 1 },
			wantSub: "contradicts 1 violations",
		},
		{
			name:    "empty sketch differential",
			mutate:  func(f *benchFile) { f.Sketch.Support = 0 },
			wantSub: "witnesses nothing",
		},
		{
			name: "sketch memory ratio contradicts its byte counts",
			mutate: func(f *benchFile) {
				f.Sketch.MemoryRatio = 30
			},
			wantSub: "does not match its byte counts",
		},
		{
			name: "sketch below 10x memory saving fails -perf",
			perf: true,
			mutate: func(f *benchFile) {
				f.Sketch.SketchBytes = 6000000
				f.Sketch.MemoryRatio = 2
			},
			wantSub: "< 10x",
		},
		{
			name: "sketch outside its bound fails -perf",
			perf: true,
			mutate: func(f *benchFile) {
				f.Sketch.Violations = f.Sketch.Support / 2
				f.Sketch.WithinBound = false
			},
			wantSub: "outside [true − slack, true]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodFile()
			tc.mutate(f)
			err := validate(f, tc.perf)
			if tc.wantSub == "" {
				if err != nil {
					t.Fatalf("unexpected rejection: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted a baseline that should fail with %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestValidateServeAcceptsGoodBaseline(t *testing.T) {
	for _, perf := range []bool{false, true} {
		if err := validateServe(goodServeFile(), perf); err != nil {
			t.Fatalf("perf=%v: %v", perf, err)
		}
	}
}

func TestValidateServeRejections(t *testing.T) {
	cases := []struct {
		name    string
		perf    bool
		mutate  func(*serveFile)
		wantSub string
	}{
		{
			name:    "wrong benchmark name",
			mutate:  func(f *serveFile) { f.Benchmark = "BenchmarkBuild" },
			wantSub: "want BenchmarkServe",
		},
		{
			name:    "no ingest rows",
			mutate:  func(f *serveFile) { f.Ingest = nil },
			wantSub: "no ingest section",
		},
		{
			name:    "non-power-of-two shards",
			mutate:  func(f *serveFile) { f.Ingest[1].Shards = 3 },
			wantSub: "not a positive power of two",
		},
		{
			name:    "duplicate shard point",
			mutate:  func(f *serveFile) { f.Ingest[2] = f.Ingest[1] },
			wantSub: "duplicate shards=4",
		},
		{
			name:    "missing shards=1 anchor",
			mutate:  func(f *serveFile) { f.Ingest = f.Ingest[1:] },
			wantSub: "no shards=1 row",
		},
		{
			name:    "shards=1 speedup not 1",
			mutate:  func(f *serveFile) { f.Ingest[0].SpeedupVs1 = 1.2 },
			wantSub: "want 1",
		},
		{
			name:    "non-positive throughput",
			mutate:  func(f *serveFile) { f.Ingest[1].AccessPerMs = 0 },
			wantSub: "accesses_per_ms",
		},
		{
			name:    "non-positive swap latency",
			mutate:  func(f *serveFile) { f.SwapLatencyMs = 0 },
			wantSub: "swap_latency_ms",
		},
		{
			name:    "single-core num_cpu is fine for serve",
			mutate:  func(f *serveFile) { f.NumCPU = 1 },
			wantSub: "",
		},
		{
			name:    "zero clients",
			mutate:  func(f *serveFile) { f.Clients = 0 },
			wantSub: "clients = 0",
		},
		{
			name:    "missing shed_overhead section",
			mutate:  func(f *serveFile) { f.ShedOverhead = nil },
			wantSub: "no shed_overhead section",
		},
		{
			name:    "shed_overhead with zero throughput",
			mutate:  func(f *serveFile) { f.ShedOverhead.ShedAccessPerMs = 0 },
			wantSub: "non-positive throughput",
		},
		{
			name: "overhead_pct contradicts its rates",
			mutate: func(f *serveFile) {
				// Claims near-free shedding while the rates say ~25%.
				f.ShedOverhead.ShedAccessPerMs = f.ShedOverhead.BlockingAccessPerMs * 0.8
				f.ShedOverhead.OverheadPct = 0.1
			},
			wantSub: "does not match its rates",
		},
		{
			name:    "missing recovery section",
			mutate:  func(f *serveFile) { f.Recovery = nil },
			wantSub: "no recovery section",
		},
		{
			name:    "recovery without a restart",
			mutate:  func(f *serveFile) { f.Recovery.Restarts = 0 },
			wantSub: "zero restarts",
		},
		{
			name:    "recovery resumed nothing",
			mutate:  func(f *serveFile) { f.Recovery.ResumedAccesses = 0 },
			wantSub: "resumed_accesses = 0",
		},
		{
			name: "shed overhead above the perf contract",
			perf: true,
			mutate: func(f *serveFile) {
				f.ShedOverhead.ShedAccessPerMs = f.ShedOverhead.BlockingAccessPerMs / 1.12
				f.ShedOverhead.OverheadPct = 12
			},
			wantSub: "> 5%",
		},
		{
			name: "12% shed overhead passes without -perf",
			mutate: func(f *serveFile) {
				f.ShedOverhead.ShedAccessPerMs = f.ShedOverhead.BlockingAccessPerMs / 1.12
				f.ShedOverhead.OverheadPct = 12
			},
			wantSub: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodServeFile()
			tc.mutate(f)
			err := validateServe(f, tc.perf)
			if tc.wantSub == "" {
				if err != nil {
					t.Fatalf("unexpected rejection: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted a baseline that should fail with %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// goodCrackFile returns a crack baseline that passes every rule.
func goodCrackFile() *crackFile {
	return &crackFile{
		Benchmark: "BenchmarkCrack",
		Oracle:    "evict",
		GoVersion: "go1.24.0",
		NumCPU:    8,
		Geometries: []crackRow{
			{
				N: 16, M: 8, Rank: 8,
				Naive:          crackStrategy{LogicalQueries: 1325, Probes: 1325, Accesses: 3975, MsPerCrack: 0.22},
				Group:          crackStrategy{LogicalQueries: 88, Probes: 88, Accesses: 4527, MsPerCrack: 0.16},
				QueryReduction: 1325.0 / 88,
				Verified:       true,
			},
			{
				N: 16, M: 8, Rank: 5,
				Naive:          crackStrategy{LogicalQueries: 237, Probes: 237, Accesses: 711, MsPerCrack: 0.03},
				Group:          crackStrategy{LogicalQueries: 82, Probes: 82, Accesses: 899, MsPerCrack: 0.05},
				QueryReduction: 237.0 / 82,
				Verified:       true,
			},
		},
	}
}

func TestValidateCrackAcceptsGoodBaseline(t *testing.T) {
	if err := validateCrack(goodCrackFile()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCrackRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*crackFile)
		wantSub string
	}{
		{
			name: "group testing stopped winning",
			mutate: func(f *crackFile) {
				// The headline invariant: probe counts are deterministic,
				// so group >= naive is an algorithmic regression.
				g := &f.Geometries[0]
				g.Group = g.Naive
				g.QueryReduction = 1
			},
			wantSub: "the reduction is the point",
		},
		{
			name:    "wrong benchmark name",
			mutate:  func(f *crackFile) { f.Benchmark = "BenchmarkServe" },
			wantSub: "want BenchmarkCrack",
		},
		{
			name:    "unknown oracle style",
			mutate:  func(f *crackFile) { f.Oracle = "telepathy" },
			wantSub: "oracle",
		},
		{
			name:    "empty geometry list",
			mutate:  func(f *crackFile) { f.Geometries = nil },
			wantSub: "no geometries",
		},
		{
			name:    "unverified recovery",
			mutate:  func(f *crackFile) { f.Geometries[1].Verified = false },
			wantSub: "not verified",
		},
		{
			name: "rank-deficient coverage lost",
			mutate: func(f *crackFile) {
				f.Geometries[1].N = 17 // keep the key unique
				f.Geometries[1].Rank = f.Geometries[1].M
			},
			wantSub: "rank-deficient",
		},
		{
			name:    "rank above m",
			mutate:  func(f *crackFile) { f.Geometries[0].Rank = 9 },
			wantSub: "rank outside",
		},
		{
			name:    "degenerate geometry",
			mutate:  func(f *crackFile) { f.Geometries[0].M = 16 },
			wantSub: "1 <= m < n",
		},
		{
			name: "duplicate geometry",
			mutate: func(f *crackFile) {
				f.Geometries[1] = f.Geometries[0]
			},
			wantSub: "duplicate geometry",
		},
		{
			name:    "zero probe counts",
			mutate:  func(f *crackFile) { f.Geometries[0].Group.Probes = 0 },
			wantSub: "zero probe counts",
		},
		{
			name: "probes below logical queries",
			mutate: func(f *crackFile) {
				f.Geometries[0].Naive.Probes = f.Geometries[0].Naive.LogicalQueries - 1
			},
			wantSub: "logical queries",
		},
		{
			name: "accesses below probes",
			mutate: func(f *crackFile) {
				f.Geometries[0].Group.Accesses = f.Geometries[0].Group.Probes - 1
			},
			wantSub: "accesses",
		},
		{
			name:    "non-positive crack time",
			mutate:  func(f *crackFile) { f.Geometries[0].Naive.MsPerCrack = 0 },
			wantSub: "ms_per_crack",
		},
		{
			name:    "query_reduction drifted from counts",
			mutate:  func(f *crackFile) { f.Geometries[0].QueryReduction = 2 },
			wantSub: "does not match counts",
		},
		{
			name:    "missing go_version",
			mutate:  func(f *crackFile) { f.GoVersion = "" },
			wantSub: "go_version",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodCrackFile()
			tc.mutate(f)
			err := validateCrack(f)
			if err == nil {
				t.Fatalf("accepted a baseline that should fail with %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}
