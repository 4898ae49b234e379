// Package xoridx reproduces "Application-Specific Reconfigurable
// XOR-Indexing to Eliminate Cache Conflict Misses" (Vandierendonck,
// Manet, Legat — DATE 2006) as a Go library.
//
// The paper's pipeline — profile a memory trace for conflict vectors
// (Fig. 1), estimate any XOR hash function's misses from its null
// space (Eq. 4), hill-climb the design space of null spaces (§3.2),
// and restrict to permutation-based functions for cheap reconfigurable
// hardware (§4–5) — lives in the internal packages:
//
//	internal/gf2          GF(2) linear algebra (vectors, matrices, null
//	                      spaces, subspace counting)
//	internal/trace        memory-access traces and codecs
//	internal/lru          LRU gate: last-touch stamps + top-of-stack window
//	internal/profile      conflict-vector profiling and the Eq. 4 estimator
//	internal/search       hill-climbing construction for every family
//	internal/optimal      exhaustive optimal bit-selecting baseline
//	internal/cache        trace-driven cache simulator (DM/SA/FA/skewed)
//	internal/hwcost       Table 1 switch-count models
//	internal/netlist      executable Fig. 2 selector networks
//	internal/workloads    synthetic MediaBench/MiBench + PowerStone suites
//	internal/core         the staged Pipeline (profile, search, validate)
//	internal/experiments  regenerates every table and figure
//
// Start with internal/core.Tune (see examples/quickstart), or run
//
//	go run ./cmd/tables -table all
//
// to regenerate the paper's evaluation. The benchmarks in bench_test.go
// map one-to-one onto the paper's tables and figures; EXPERIMENTS.md
// records paper-vs-measured numbers.
package xoridx
