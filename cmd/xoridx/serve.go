// The serve subcommand: the paper's tune loop as a long-running
// service. An in-process swarm of clients replays workload traces
// (internal/workloads generators) through the ingest wire codec into
// the sharded server; windows rotate as accesses accumulate, the
// background optimizer re-tunes the index matrix warm-started from the
// current one, and each result hot-swaps in as a new epoch.
//
// Usage:
//
//	xoridx serve -bench fft,rijndael -clients 8 -accesses 2000000
//	xoridx serve -bench mix -shards 8 -window 262144 -decay 0.3
//	xoridx serve -bench fft -checkpoint svc.ckpt           # crash-safe state
//	xoridx serve -bench fft -checkpoint svc.ckpt -resume   # continue it
//	xoridx serve -bench mix -httpprof localhost:6060       # live pprof
//	xoridx serve -bench fft -progress                      # re-tune progress
//	xoridx serve -bench mix -shed -checkpoint-every 65536  # self-healing posture
//	xoridx serve -bench fft -retune-deadline 2s            # watchdogged re-tunes
//
// Each client streams one benchmark's block accesses, switching to the
// next benchmark in its list when the trace is exhausted — a
// phase-shifting workload that keeps the optimizer honest. Ctrl-C
// stops the swarm, closes the server (final checkpoint included) and
// prints the epoch history.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -httpprof registers the profiling handlers
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"xoridx/internal/cliutil"
	"xoridx/internal/core"
	"xoridx/internal/faultio"
	"xoridx/internal/serve"
	"xoridx/internal/workloads"
)

func serveMain(args []string) {
	fs := flag.NewFlagSet("xoridx serve", flag.ExitOnError)
	cacheBytes := fs.Int("cache", 4096, "cache size in bytes")
	blockBytes := fs.Int("block", 4, "cache block size in bytes")
	ways := fs.Int("ways", 1, "associativity (1 = direct mapped)")
	addrBits := fs.Int("n", 16, "hashed block-address bits")
	family := fs.String("family", "general", "function family: permutation, general, bitselect")
	maxInputs := fs.Int("maxinputs", 0, "max XOR inputs per set-index bit (0 = unlimited)")
	shards := fs.Int("shards", 4, "ingest shards (power of two)")
	window := fs.Uint64("window", serve.DefaultWindowAccesses, "window length in accesses between re-tunes")
	decay := fs.Float64("decay", 0.25, "per-window aggregate decay in [0,1): 0 remembers everything")
	clients := fs.Int("clients", 4, "concurrent workload clients")
	accesses := fs.Uint64("accesses", 1<<21, "total accesses to stream per client")
	batch := fs.Int("batch", 4096, "accesses per ingest frame")
	bench := fs.String("bench", "mix", "comma-separated benchmark names each client cycles through, or \"mix\" for a spread across the suites")
	scale := fs.Int("scale", 1, "workload scale factor (>= 1)")
	checkpoint := fs.String("checkpoint", "", "service checkpoint file: full state (windowed histograms + current epoch) written atomically after every re-tune and on exit")
	resume := fs.Bool("resume", false, "restore the -checkpoint file on startup (missing file = cold start)")
	strict := fs.Bool("strict", false, "refuse to -resume from a checkpoint with a damaged shard blob instead of healing around it")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "periodic checkpoint cadence in accesses: refresh shard recovery snapshots and rewrite -checkpoint every this many accesses (0 = only at re-tunes and exit)")
	maxShardRestarts := fs.Int("max-shard-restarts", 0, "shard circuit-breaker budget: restarts from the last recovery snapshot before quarantining (0 = default)")
	shed := fs.Bool("shed", false, "shed load instead of blocking when a shard queue is full: drop-with-accounting plus hot-client fairness")
	admissionWait := fs.Duration("admission-wait", 0, "with -shed, how long a full-queue ingest waits before shedding (0 = default, negative = immediately)")
	retuneDeadline := fs.Duration("retune-deadline", 0, "re-tune watchdog: a search round over this long publishes its best-so-far result marked degraded (0 = no deadline)")
	retries := fs.Int("retries", 0, "retry budget for transient ingest stream failures")
	httpprof := fs.String("httpprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
	progress := fs.Bool("progress", false, "report re-tune rounds and search progress on stderr")
	fs.Parse(args)

	if err := cliutil.ValidateScale(*scale); err != nil {
		cliutil.Usagef("xoridx serve", "%v", err)
	}
	fam, err := cliutil.ParseFamily(*family)
	if err != nil {
		cliutil.Usagef("xoridx serve", "%v", err)
	}
	names := benchNames(*bench)
	for _, name := range names {
		if _, err := workloads.ByName(name); err != nil {
			cliutil.Usagef("xoridx serve", "%v", err)
		}
	}
	if *httpprof != "" {
		go func() {
			if err := http.ListenAndServe(*httpprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "xoridx serve: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *httpprof)
	}

	opt := serve.Options{
		Config: core.Config{
			CacheBytes: *cacheBytes,
			BlockBytes: *blockBytes,
			Ways:       *ways,
			AddrBits:   *addrBits,
			Family:     fam,
			MaxInputs:  *maxInputs,
		},
		Shards:         *shards,
		WindowAccesses: *window,
		Decay:          *decay,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Strict:         *strict,

		CheckpointEvery:  *checkpointEvery,
		MaxShardRestarts: *maxShardRestarts,
		RestartBackoff:   faultio.DefaultPolicy,
		Shed:             *shed,
		AdmissionWait:    *admissionWait,
		RetuneDeadline:   *retuneDeadline,
	}
	if *retries > 0 {
		opt.Retry = faultio.DefaultPolicy
		opt.Retry.MaxRetries = *retries
	}
	var epochMu sync.Mutex
	var epochLog []*serve.Epoch
	if *progress {
		opt.Events = cliutil.ProgressSink(os.Stderr)
	}
	s, err := serve.New(opt)
	if err != nil {
		cliutil.Fatal("xoridx serve", err)
	}
	for _, rerr := range s.RestoreErrors() {
		fmt.Fprintf(os.Stderr, "xoridx serve: healed on resume: %v\n", rerr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	fmt.Printf("serving: %d clients x %d accesses, %d shards, window %d, decay %g, benches %s\n",
		*clients, *accesses, s.Stats().Shards, *window, *decay, strings.Join(names, ","))

	// Epoch watcher: record every published epoch for the final report.
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		last := uint64(0)
		for {
			ep := s.Current()
			if ep.Seq != last {
				last = ep.Seq
				epochMu.Lock()
				epochLog = append(epochLog, ep)
				epochMu.Unlock()
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()

	// Client swarm: each client streams its benchmark cycle through the
	// wire codec and an in-process pipe, exercising the same ingest
	// path a network transport would.
	var swarm sync.WaitGroup
	for c := 0; c < *clients; c++ {
		pr, pw := io.Pipe()
		swarm.Add(1)
		go func(id int, w *io.PipeWriter) {
			defer swarm.Done()
			defer w.Close()
			if err := streamClient(ctx, w, uint64(id), names, *scale, *blockBytes, *addrBits, *batch, *accesses); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "xoridx serve: client %d: %v\n", id, err)
			}
		}(c, pw)
		swarm.Add(1)
		go func(id int, r *io.PipeReader) {
			defer swarm.Done()
			defer r.Close()
			if err := s.ServeIngest(ctx, r); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "xoridx serve: ingest %d: %v\n", id, err)
			}
		}(c, pr)
	}
	swarm.Wait()

	// Flush: two sequential rounds guarantee the stream's tail is
	// covered — the first call may dedup into a round that was already
	// in flight when the last accesses arrived; the second cannot.
	if ctx.Err() == nil {
		for i := 0; i < 2; i++ {
			if _, err := s.Retune(context.Background()); err != nil {
				fmt.Fprintf(os.Stderr, "xoridx serve: final re-tune: %v\n", err)
				break
			}
		}
	}
	stop()
	<-watcherDone
	if err := s.Close(); err != nil {
		cliutil.Fatal("xoridx serve", err)
	}
	if err := s.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "xoridx serve: background: %v\n", err)
	}

	st := s.Stats()
	fmt.Printf("\nran %v: %d accesses in %d batches, %d rotations, %d re-tunes, %d hot swaps\n",
		time.Since(start).Round(time.Millisecond), st.Ingested, st.Batches, st.Rotations, st.Retunes, st.Swaps)
	if st.Restarts+uint64(st.Quarantined)+st.Shed+st.DroppedQuarantined+st.StaleSkips+st.DegradedRetunes > 0 {
		fmt.Printf("health: %d shard restarts, %d quarantined, %d accesses shed, %d dropped at quarantined shards, %d stale rounds skipped, %d degraded re-tunes\n",
			st.Restarts, st.Quarantined, st.Shed, st.DroppedQuarantined, st.StaleSkips, st.DegradedRetunes)
	}
	if st.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d periodic writes\n", st.Checkpoints)
	}
	final := s.Current()
	epochMu.Lock()
	log := append([]*serve.Epoch(nil), epochLog...)
	epochMu.Unlock()
	fmt.Println("epoch history:")
	for _, ep := range log {
		describeEpoch(ep)
	}
	if len(log) == 0 || log[len(log)-1].Seq != final.Seq {
		describeEpoch(final)
	}
	if *checkpoint != "" {
		fmt.Printf("state checkpointed to %s (resume with -resume)\n", *checkpoint)
	}
}

func describeEpoch(ep *serve.Epoch) {
	switch {
	case ep.Seq == 1:
		fmt.Printf("  epoch %d: conventional modulo indexing (boot)\n", ep.Seq)
	case ep.Changed:
		improved := ""
		if ep.Baseline > 0 {
			improved = fmt.Sprintf(", %.1f%% under modulo baseline", 100*(1-float64(ep.Estimated)/float64(ep.Baseline)))
		}
		fmt.Printf("  epoch %d (window %d): hot-swapped, estimate %d -> %d%s\n",
			ep.Seq, ep.Window, ep.PrevEstimated, ep.Estimated, improved)
	default:
		fmt.Printf("  epoch %d (window %d): kept previous function, estimate %d\n",
			ep.Seq, ep.Window, ep.Estimated)
	}
}

// benchNames expands the -bench flag: "mix" becomes a spread across
// the suites, anything else is a comma-separated list.
func benchNames(flagVal string) []string {
	if flagVal == "mix" {
		return []string{"fft", "rijndael", "adpcm_dec", "compress", "susan", "crc"}
	}
	var names []string
	for _, name := range strings.Split(flagVal, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// streamClient writes one client's access stream: frames of the wire
// codec, cycling through its benchmark list (a new benchmark per trace
// exhaustion — the phase shifts that trigger re-tunes) until the
// access budget is spent.
func streamClient(ctx context.Context, w io.Writer, clientID uint64, names []string, scale, blockBytes, addrBits, batch int, budget uint64) error {
	bw := serve.NewBatchWriter(w)
	// Stagger phase order per client so the mix overlaps.
	idx := int(clientID) % len(names)
	var sent uint64
	for sent < budget {
		if err := ctx.Err(); err != nil {
			return nil
		}
		wl, err := workloads.ByName(names[idx])
		if err != nil {
			return err
		}
		idx = (idx + 1) % len(names)
		blocks := wl.Data(scale).Blocks(blockBytes, addrBits)
		for off := 0; off < len(blocks) && sent < budget; off += batch {
			end := off + batch
			if end > len(blocks) {
				end = len(blocks)
			}
			if rem := budget - sent; uint64(end-off) > rem {
				end = off + int(rem)
			}
			if err := bw.WriteBatch(clientID, blocks[off:end]); err != nil {
				return err
			}
			sent += uint64(end - off)
		}
	}
	return nil
}
