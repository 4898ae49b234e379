// The crack subcommand: the repository's pipeline run backwards. A
// hidden XOR index function is planted in a simulated direct-mapped
// cache, and the attacker side recovers it from black-box probe
// behaviour alone (internal/crack), verifying the recovery against the
// plant up to the invertible output transforms a black box cannot see.
//
// Usage:
//
//	xoridx crack -n 16 -m 8 -trials 20                  # randomized self-test sweep
//	xoridx crack -n 16 -m 8 -strategy both              # compare naive vs group testing
//	xoridx crack -n 16 -m 8 -noise 0.02 -repeats 4      # noisy oracle + majority vote
//	xoridx crack -n 16 -m 8 -oracle evict               # membership-test-only oracle
//	xoridx crack -plant h.mat                           # crack one specific matrix
//	xoridx crack -trace fft.xtr -n 14 -m 7 -seed 3      # passive trace-driven mode
//
// Self-test mode plants -trials random functions (mixing in
// rank-deficient ones unless -rank pins the rank) and cracks each with
// the selected strategies; the run fails unless every recovery is
// set-mapping equivalent to its plant with an index-transform witness.
// Trace mode never probes: it replays an existing workload trace
// through the planted cache, watches only the hit/miss stream, and
// reports how much of the null space those passive observations pin.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"xoridx/internal/cliutil"
	"xoridx/internal/crack"
	"xoridx/internal/gf2"
)

func crackMain(args []string) {
	fs := flag.NewFlagSet("xoridx crack", flag.ExitOnError)
	addrBits := fs.Int("n", 16, "hashed block-address bits of the hidden function")
	setBits := fs.Int("m", 8, "set-index bits of the hidden function")
	rank := fs.Int("rank", 0, "planted column rank (0 = mix full-rank and rank-deficient plants)")
	trials := fs.Int("trials", 20, "randomized plants to crack in self-test mode")
	seed := fs.Int64("seed", 1, "base seed for plants and noise")
	strategy := fs.String("strategy", "both", "probe strategy: naive, group, both")
	oracle := fs.String("oracle", "hitmiss", "observation style: hitmiss, evict")
	noise := fs.Float64("noise", 0, "spurious-miss probability per probe in [0,1)")
	repeats := fs.Int("repeats", 0, "majority-vote repetitions: each logical query asks the oracle 2*repeats+1 times")
	plantFile := fs.String("plant", "", "plant this matrix file (from -save) instead of random functions")
	traceFile := fs.String("trace", "", "passive mode: recover from this workload trace's hit/miss stream instead of probing")
	blockBytes := fs.Int("block", 4, "cache block size in bytes (trace mode address-to-block mapping)")
	saveFn := fs.String("save", "", "write the last recovered matrix to this file")
	verbose := fs.Bool("verbose", false, "print planted and recovered matrices")
	fs.Parse(args)

	var strategies []crack.Strategy
	switch *strategy {
	case "naive":
		strategies = []crack.Strategy{crack.Naive}
	case "group":
		strategies = []crack.Strategy{crack.GroupTesting}
	case "both":
		strategies = []crack.Strategy{crack.Naive, crack.GroupTesting}
	default:
		cliutil.Usagef("xoridx crack", "unknown strategy %q (want naive, group or both)", *strategy)
	}
	var style crack.Style
	switch *oracle {
	case "hitmiss":
		style = crack.HitMiss
	case "evict":
		style = crack.EvictionSet
	default:
		cliutil.Usagef("xoridx crack", "unknown oracle style %q (want hitmiss or evict)", *oracle)
	}
	if *noise < 0 || *noise >= 1 {
		cliutil.Usagef("xoridx crack", "noise %g outside [0, 1)", *noise)
	}
	if *noise > 0 && *repeats == 0 {
		fmt.Fprintln(os.Stderr, "xoridx crack: warning: -noise without -repeats leaves majority voting off")
	}

	// The plant schedule: one fixed matrix from -plant, or -trials
	// random ones (rank-deficient every third trial unless -rank pins
	// the rank).
	var plants []gf2.Matrix
	if *plantFile != "" {
		data, err := os.ReadFile(*plantFile)
		if err != nil {
			cliutil.Fatal("xoridx crack", err)
		}
		var h gf2.Matrix
		if err := h.UnmarshalText(data); err != nil {
			cliutil.Fatal("xoridx crack", err)
		}
		plants = []gf2.Matrix{h}
		*addrBits, *setBits = h.N, h.M
	} else {
		if *addrBits < 2 || *addrBits > gf2.MaxBits || *setBits < 1 || *setBits >= *addrBits {
			cliutil.Usagef("xoridx crack", "need 2 <= n <= %d and 1 <= m < n, got n=%d m=%d", gf2.MaxBits, *addrBits, *setBits)
		}
		if *rank < 0 || *rank > *setBits {
			cliutil.Usagef("xoridx crack", "rank %d outside [0, m=%d]", *rank, *setBits)
		}
		if *trials < 1 {
			cliutil.Usagef("xoridx crack", "need at least one trial")
		}
		for i := 0; i < *trials; i++ {
			r := *rank
			if r == 0 {
				r = *setBits
				if i%3 == 2 && r > 1 {
					r-- // mix in rank-deficient plants
				}
			}
			plants = append(plants, crack.RandomPlant(*addrBits, *setBits, r, *seed+int64(i)))
		}
	}
	for _, h := range plants {
		if r := h.Rank(); r > crack.MaxRecoverableRank {
			cliutil.Usagef("xoridx crack", "planted rank %d exceeds the recoverable maximum %d", r, crack.MaxRecoverableRank)
		}
	}

	if *traceFile != "" {
		crackTraceMode(plants[0], *traceFile, *blockBytes, *verbose)
		return
	}

	fmt.Printf("cracking: %d plants, n=%d m=%d, strategy %s, oracle %s, noise %g (repeats %d)\n",
		len(plants), *addrBits, *setBits, *strategy, *oracle, *noise, *repeats)
	totals := make(map[crack.Strategy]crack.Stats)
	logical := make(map[crack.Strategy]uint64)
	var last gf2.Matrix
	for i, h := range plants {
		for _, st := range strategies {
			var o crack.Oracle
			sim, err := crack.NewSimOracle(h, style)
			if err != nil {
				cliutil.Fatal("xoridx crack", err)
			}
			o = sim
			if *noise > 0 {
				o = crack.NewNoisyOracle(sim, *noise, *seed+int64(i))
			}
			res, err := crack.Crack(o, crack.Options{Strategy: st, Repeats: *repeats})
			if err != nil {
				cliutil.Fatal("xoridx crack", err)
			}
			if !crack.Equivalent(res.Matrix, h) {
				fmt.Fprintf(os.Stderr, "xoridx crack: trial %d (%s): recovered function NOT equivalent to plant\n", i, st)
				os.Exit(1)
			}
			if _, ok := crack.IndexTransform(res.Matrix, h); !ok {
				fmt.Fprintf(os.Stderr, "xoridx crack: trial %d (%s): no index transform onto the plant\n", i, st)
				os.Exit(1)
			}
			logical[st] += res.LogicalQueries
			t := totals[st]
			t.Queries += res.Stats.Queries
			t.Accesses += res.Stats.Accesses
			totals[st] = t
			last = res.Matrix
			fmt.Printf("  trial %d (%s): rank %d recovered, %d logical queries (%d probes, %d accesses) — equivalent, transform verified\n",
				i, st, res.Rank, res.LogicalQueries, res.Stats.Queries, res.Stats.Accesses)
			if *verbose {
				fmt.Printf("planted:\n%s\nrecovered:\n%s\n", h, res.Matrix)
			}
		}
	}
	fmt.Printf("all %d trials recovered set-mapping-equivalent functions\n", len(plants))
	if len(strategies) == 2 {
		n, g := logical[crack.Naive], logical[crack.GroupTesting]
		fmt.Printf("group testing: %d logical queries vs %d naive (%.1fx fewer); accesses %d vs %d\n",
			g, n, float64(n)/float64(g), totals[crack.GroupTesting].Accesses, totals[crack.Naive].Accesses)
	}
	saveMatrix(*saveFn, last)
}

// crackTraceMode is the passive attack: replay a real workload trace
// through the planted black box, observe only hits and misses, and
// report how much of the hidden null space the trace's reuse structure
// gives away.
func crackTraceMode(h gf2.Matrix, traceFile string, blockBytes int, verbose bool) {
	tr, err := cliutil.ReadTrace(context.Background(), traceFile, 0)
	if err != nil {
		cliutil.Fatal("xoridx crack", err)
	}
	blocks := tr.Blocks(blockBytes, h.N)
	o, err := crack.NewSimOracle(h, crack.HitMiss)
	if err != nil {
		cliutil.Fatal("xoridx crack", err)
	}
	missed, err := crack.ObserveTrace(o, blocks)
	if err != nil {
		cliutil.Fatal("xoridx crack", err)
	}
	res, err := crack.CrackTrace(blocks, missed, h.N)
	if err != nil {
		cliutil.Fatal("xoridx crack", err)
	}
	null := h.NullSpace()
	for _, b := range res.Recovered.Basis {
		if !null.Contains(b) {
			fmt.Fprintln(os.Stderr, "xoridx crack: passive recovery left the true null space — observations inconsistent")
			os.Exit(1)
		}
	}
	fmt.Printf("passive crack of %s: %d accesses through planted %dx%d cache\n", traceFile, len(blocks), h.N, h.M)
	fmt.Printf("constraints: %d positives, %d negatives, %d disjunctions, %d inconsistent\n",
		res.Positives, res.Negatives, res.Disjunctions, res.Inconsistent)
	fmt.Printf("recovered %d of %d null-space dimensions", res.Recovered.Dim(), null.Dim())
	if res.Recovered.Equal(null) {
		fmt.Printf(" — complete: trace reuse pins the whole function\n")
	} else {
		fmt.Printf(" — partial: probe actively (drop -trace) to finish\n")
	}
	if verbose {
		fmt.Printf("planted:\n%s\nrecovered span:\n%s\n", h, res.Recovered)
	}
}

// saveMatrix mirrors the construct pipeline's -save flag.
func saveMatrix(path string, h gf2.Matrix) {
	if path == "" || h.N == 0 {
		return
	}
	data, err := h.MarshalText()
	if err != nil {
		cliutil.Fatal("xoridx crack", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		cliutil.Fatal("xoridx crack", err)
	}
	fmt.Printf("recovered matrix written to %s (re-evaluate with -apply)\n", path)
}
