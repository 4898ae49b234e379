// Command xoridx constructs an application-specific XOR index function
// from a memory-access trace: the end-to-end pipeline of the paper
// (profile → hill-climbing search → exact validation → fallback).
//
// Usage:
//
//	tracegen -bench fft -out fft.xtr
//	xoridx -trace fft.xtr -cache 4096
//	xoridx -trace fft.xtr -cache 1024 -family general
//	xoridx -trace fft.xtr -cache 4096 -family permutation -maxinputs 4 -verbose
//	xoridx -trace fft.xtr -cache 2048 -ways 2                # set-associative tuning
//	xoridx -trace fft.xtr -analyze                           # conflict diagnosis
//	xoridx -trace fft.xtr -save f.mat; xoridx -trace g.xtr -apply f.mat
//	xoridx -trace fft.xtr -bitstream -verilog index.v        # hardware artefacts
//	xoridx -trace fft.xtr -family general -maxinputs 0 -algo anneal  # alternative search
//	xoridx -trace fft.xtr -cache 4096 -workers -1            # profile slices of the trace in parallel
//	xoridx -trace fft.xtr -cache 4096 -progress              # stage/search progress on stderr
//	xoridx -trace fft.xtr -checkpoint run                    # profiling crash snapshots -> run.profile.ckpt
//	xoridx -trace fft.xtr -checkpoint run -resume            # continue a killed run, bit-identically
//	xoridx -trace fft.xtr -cpuprofile cpu.pb -memprofile mem.pb  # pprof the pipeline
//	xoridx -trace huge.xtr -sample 16                        # sampled profiling with confidence bounds
//	xoridx -trace huge.xtr -sample 16 -checkpoint run        # ... with crash snapshots; -resume continues it
//	xoridx -trace huge.xtr -backend sketch                   # bounded-memory capped histogram (Misra–Gries)
//
// A binary trace is never loaded: profiling and exact validation (-apply
// too), which simulates both caches at once, stream it off the file in a
// pass each, and -analyze streams its profile and pair-attribution
// passes the same way, so traces far larger than RAM are tuned,
// validated and diagnosed in bounded memory. An approximate profile
// (-sample > 1 or -backend sketch) adds the Eq. 4 estimates with their
// "X ± ε" confidence intervals to the report; -verbose prints a sketch
// profile's slack, the most any of its counts is low by.
//
// Ctrl-C (SIGINT) cancels the pipeline cooperatively: the run aborts
// within one hill-climbing move, prints the best-so-far function marked
// degraded, and exits with the cancellation error; with -checkpoint the
// profiling state is on disk and -resume restores it, then re-runs the
// (deterministic, fast) search and validation.
//
// Trace files may be in the binary, text or Dinero III format
// (autodetected).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"xoridx/internal/cliutil"
	"xoridx/internal/core"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/netlist"
	"xoridx/internal/profile"
	"xoridx/internal/search"
	"xoridx/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "crack" {
		crackMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		chaosMain(os.Args[2:])
		return
	}
	traceFile := flag.String("trace", "", "trace file (binary or text format)")
	cacheBytes := flag.Int("cache", 4096, "cache size in bytes")
	ways := flag.Int("ways", 1, "associativity (1 = direct mapped)")
	blockBytes := flag.Int("block", 4, "cache block size in bytes")
	addrBits := flag.Int("n", 16, "hashed block-address bits")
	family := flag.String("family", "permutation", "function family: permutation, general, bitselect")
	algo := flag.String("algo", "hillclimb", "search algorithm: hillclimb (paper, any family), anneal (-family general -maxinputs 0), constructive (-family permutation); -restarts applies only to hillclimb")
	maxInputs := flag.Int("maxinputs", 2, "max XOR inputs per set-index bit (0 = unlimited)")
	restarts := flag.Int("restarts", 0, "extra random hill-climbing restarts (-algo hillclimb only)")
	workers := flag.Int("workers", 1, "trace slices profiled in parallel, each on its own goroutine (1 = one slice, -1 = all cores); results are identical for any value")
	noFallback := flag.Bool("nofallback", false, "disable the revert-to-conventional guard")
	verbose := flag.Bool("verbose", false, "print the profile and search details")
	bitstream := flag.Bool("bitstream", false, "emit the Fig. 2b configuration bitstream for the selected function (permutation family, maxinputs <= 2)")
	saveFn := flag.String("save", "", "write the selected function's matrix to this file")
	verilogFile := flag.String("verilog", "", "write a synthesizable Verilog module of the Fig. 2b network to this file")
	loadFn := flag.String("apply", "", "skip the search: load a matrix from this file and evaluate it on the trace")
	analyze := flag.Bool("analyze", false, "diagnose the trace's conflicts (hot vectors + concrete address pairs) instead of constructing a function")
	progress := flag.Bool("progress", false, "report pipeline stages and search progress on stderr")
	checkpoint := flag.String("checkpoint", "", "base path for crash snapshots: profiling state, -sample's included, goes to <path>.profile.ckpt, written atomically; restart a killed run with -resume (not with -backend sketch)")
	resume := flag.Bool("resume", false, "restore the profile from <path>.profile.ckpt under -checkpoint (a missing file means a cold start) and re-run the search; the resumed run is bit-identical to an uninterrupted one, and a snapshot taken under another -sample or -sample-seed is refused")
	retries := flag.Int("retries", 0, "retry budget for transient trace I/O failures, with capped exponential backoff")
	sampleK := flag.Uint64("sample", 0, "profile every k-th conflict candidate instead of all of them; estimates gain a 95% confidence interval (0 or 1 = exact); composes with -checkpoint")
	sampleSeed := flag.Uint64("sample-seed", 0, "deterministic phase seed for -sample")
	backend := flag.String("backend", "auto", fmt.Sprintf("histogram backend: auto (the address width picks a flat table or a sparse map) or sketch (bounded memory: a sparse map capped at %d entries whose counts, and so estimates, are low by at most the slack -verbose prints)", profile.SketchEntries))
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "xoridx: -trace required")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Deferred so the snapshot covers the whole pipeline, whichever
		// path (apply / analyze / construct) the run takes.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "xoridx: -resume needs -checkpoint")
		os.Exit(2)
	}
	cfg := core.Config{
		CacheBytes:     *cacheBytes,
		Ways:           *ways,
		BlockBytes:     *blockBytes,
		AddrBits:       *addrBits,
		MaxInputs:      *maxInputs,
		Restarts:       *restarts,
		NoFallback:     *noFallback,
		Workers:        *workers,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		SampleK:        *sampleK,
		SampleSeed:     *sampleSeed,
		Backend:        *backend,
	}
	var err error
	cfg.Family, err = cliutil.ParseFamily(*family)
	if err != nil {
		fatal(err)
	}
	// An unknown algorithm fails here, and one paired with a family it
	// cannot search fails the pipeline's config check: both before the
	// profile pass reads the trace.
	if cfg.Algorithm, err = parseAlgorithm(*algo); err != nil {
		fatal(err)
	}
	var events core.Sink
	if *progress {
		events = cliutil.ProgressSink(os.Stderr)
	}
	tr, err := cliutil.OpenTrace(ctx, *traceFile, *retries)
	if err != nil {
		fatal(err)
	}
	if *analyze && *loadFn == "" { // -apply takes precedence over -analyze
		a, err := profile.AnalyzeConflicts(ctx, tr, *blockBytes, *addrBits, *cacheBytes / *blockBytes, 8, 12)
		if err != nil {
			fatal(err)
		}
		fmt.Print(a.Report(*blockBytes))
		return
	}
	if *loadFn != "" {
		if err := applyMatrixFile(ctx, tr, *loadFn, cfg); err != nil {
			fatal(err)
		}
		return
	}
	res, err := core.Tune(ctx, tr, cfg, events)
	if err != nil {
		if res != nil && res.Degraded && res.Func != nil {
			// Anytime contract: an interrupted run still reports the best
			// function it reached, clearly marked as unvalidated.
			fmt.Printf("search interrupted after %d moves (%d candidates evaluated); best-so-far estimate %d (baseline %d)\n",
				res.Search.Iterations, res.Search.Evaluated, res.Search.Estimated, res.Search.Baseline)
			fmt.Println("NOTE: result is degraded — not exactly validated, not necessarily a local optimum")
			fmt.Println()
			fmt.Println(core.DescribeFunction(res.Func))
			if *checkpoint != "" {
				fmt.Printf("\nresume with: -trace %s -checkpoint %s -resume\n", *traceFile, *checkpoint)
			}
		}
		fatal(err)
	}
	head := tr.Header()
	if head.Ops == 0 {
		head.Ops = head.Len
	}
	fmt.Printf("trace: %s (%d accesses, %d ops)\n", head.Name, head.Len, head.Ops)
	fmt.Printf("cache: %d B, %d-way, %d B blocks (%d sets)\n\n",
		*cacheBytes, *ways, *blockBytes, *cacheBytes / *blockBytes / *ways)
	p := res.Profile
	approx := p.SampleK > 1 || p.Backend() == "sketch"
	if *verbose {
		label := "profile"
		if approx {
			label = fmt.Sprintf("profile [%s backend, %d histogram bytes]", p.Backend(), p.HistogramBytes())
		}
		fmt.Printf("%s: %d accesses = %d compulsory + %d capacity + %d conflict candidates (%d conflict pairs)\n",
			label, p.Accesses, p.Compulsory, p.Capacity, p.Candidates, p.TotalPairs)
		if p.Backend() == "sketch" {
			fmt.Printf("sketch profiling: slack %d; each count is low by at most that, of %d conflict pairs\n",
				p.Slack, p.TotalPairs)
		}
		if p.SampleK > 1 {
			fmt.Printf("sampled profiling: k=%d, walked %d of %d candidates; optimized estimate %s\n",
				p.SampleK, p.SampledCandidates, p.Candidates, res.Search.Confidence)
		}
		fmt.Println("hottest conflict vectors:")
		for _, vc := range p.HotVectors(8) {
			fmt.Printf("  %s x%d\n", vc.Vec.StringN(p.N), vc.Count)
		}
		fmt.Printf("search: %d moves, %d candidates evaluated, estimate %d (baseline %d)\n",
			res.Search.Iterations, res.Search.Evaluated, res.Search.Estimated, res.Search.Baseline)
		fmt.Printf("search cost: %d histogram lookups\n\n", res.Search.Lookups)
	}
	fmt.Println(core.DescribeFunction(res.Func))
	fmt.Println()
	fmt.Printf("baseline (modulo) misses:  %8d (%.2f per K-op)\n",
		res.Baseline.Misses, res.Baseline.MissesPerKOp(head.Ops))
	fmt.Printf("optimized misses:          %8d (%.2f per K-op)\n",
		res.Optimized.Misses, res.Optimized.MissesPerKOp(head.Ops))
	fmt.Printf("misses removed:            %8.1f%%\n", 100*res.MissesRemoved())
	if res.UsedFallback {
		fmt.Println("note: optimized function added misses; reverted to conventional indexing (paper §6)")
	}
	if approx {
		fmt.Println("estimated conflict misses (Eq. 4):")
		fmt.Printf("  baseline (modulo):  %s\n", p.ConfidenceFor(res.Search.Baseline))
		fmt.Printf("  optimized:          %s\n", p.ConfidenceFor(res.Search.Estimated))
	}
	if *bitstream {
		if err := emitBitstream(res.Func, *addrBits, cfg.SetBits()); err != nil {
			fatal(err)
		}
	}
	if *saveFn != "" {
		data, err := res.Func.Matrix().MarshalText()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*saveFn, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nmatrix written to %s (re-evaluate with -apply)\n", *saveFn)
	}
	if *verilogFile != "" {
		nl := netlist.NewPermutationXOR2(*addrBits, cfg.SetBits())
		if err := nl.Configure(res.Func.Matrix()); err != nil {
			fatal(fmt.Errorf("cannot realise function in the Fig. 2b network: %w", err))
		}
		f, err := os.Create(*verilogFile)
		if err != nil {
			fatal(err)
		}
		if err := nl.EmitVerilog(f, "xoridx_index"); err != nil {
			_ = f.Close() // surfacing the emit error matters more
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		lit, _ := nl.VerilogConfigLiteral()
		fmt.Printf("\nVerilog module written to %s; program cfg_in = %s\n", *verilogFile, lit)
	}
}

// parseAlgorithm maps an -algo name onto the search algorithm.
func parseAlgorithm(name string) (search.Algorithm, error) {
	for _, a := range []search.Algorithm{search.HillClimb, search.Anneal, search.Constructive} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown -algo %q (hillclimb, anneal, constructive)", name)
}

// applyMatrixFile evaluates a previously saved index function on a
// trace without re-running the search: the validation stage with the
// §6 fallback off, so the applied function's misses are reported as
// they are.
func applyMatrixFile(ctx context.Context, tr trace.Source, path string, cfg core.Config) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var h gf2.Matrix
	if err := h.UnmarshalText(data); err != nil {
		return err
	}
	cfg.AddrBits, cfg.NoFallback = h.N, true
	pl := core.Pipeline{Config: cfg}
	res, err := pl.Validate(ctx, tr, nil, search.Result{Matrix: h})
	if err != nil {
		return err
	}
	fmt.Printf("applied %s\n", res.Func)
	fmt.Printf("baseline (modulo) misses: %8d\n", res.Baseline.Misses)
	fmt.Printf("applied-function misses:  %8d\n", res.Optimized.Misses)
	if res.Baseline.Misses > 0 {
		fmt.Printf("misses removed:           %8.1f%%\n", 100*res.MissesRemoved())
	}
	return nil
}

// emitBitstream programs the Fig. 2b permutation-based selector network
// with the selected function and prints the configuration bits, one
// line per selector, verifying the configured hardware first.
func emitBitstream(f *hash.XOR, n, m int) error {
	nl := netlist.NewPermutationXOR2(n, m)
	if err := nl.Configure(f.Matrix()); err != nil {
		return fmt.Errorf("function does not fit the 2-input permutation-based network: %w", err)
	}
	// Verify the silicon model agrees with the function on a sample.
	for a := uint64(0); a < 1<<uint(n); a += 257 {
		idx, tag := nl.Eval(a)
		if idx != f.Index(a) || tag != f.Tag(a) {
			return fmt.Errorf("internal: netlist/function mismatch at %#x", a)
		}
	}
	bits := nl.Config()
	fmt.Printf("\nconfiguration bitstream (%d bits, %d selectors of 1-out-of-%d):\n",
		len(bits), m, n-m+1)
	perSel := n - m + 1
	for s := 0; s < m; s++ {
		fmt.Printf("  s%-2d ", s)
		for i := 0; i < perSel; i++ {
			if bits[s*perSel+i] {
				fmt.Print("1")
			} else {
				fmt.Print("0")
			}
		}
		fmt.Println()
	}
	return nil
}

func fatal(err error) {
	cliutil.Fatal("xoridx", err)
}
