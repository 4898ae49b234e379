// Command tables regenerates the tables and figures of the paper's
// evaluation section (DATE 2006, Vandierendonck et al.).
//
// Usage:
//
//	tables -table all          # everything (several minutes)
//	tables -table 1            # Table 1: reconfiguration switch counts
//	tables -table 2d           # Table 2, data-cache half
//	tables -table 2i           # Table 2, instruction-cache half
//	tables -table 3            # Table 3: PowerStone optimality study
//	tables -table exp1         # §6 in-text: general vs permutation XOR
//	tables -table eq3          # §2: design-space size figures
//	tables -table 2x           # extension: Table 2 protocol, extra suite
//	tables -table cross        # extension: cross-application matrix
//	tables -table assoc        # extension: vs (skewed-)associativity
//	tables -table fixed        # extension: fixed hashes [5][9] vs tuned
//	tables -table sweep        # extension: miss curves across sizes
//	tables -table phase        # extension: multiprogrammed reconfiguration
//	tables -table energy       # extension: first-order energy model
//	tables -table repl         # extension: replacement-policy ablation
//	tables -table aslr         # extension: load-address robustness
//	tables -scale 2            # larger workload inputs
//	tables -table 2d -progress # stage/search progress on stderr
//
// Ctrl-C (SIGINT) cancels the run cleanly: the in-flight experiment
// aborts within one hill-climbing move and the command reports the
// cancellation instead of exiting mid-write.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"xoridx/internal/cliutil"
	"xoridx/internal/experiments"
	"xoridx/internal/workloads"
)

func main() {
	table := flag.String("table", "all",
		"which table to regenerate: 1, 2d, 2i, 2x, 3, exp1, eq3, cross, assoc, fixed, sweep, phase, energy, repl, aslr, all")
	scale := flag.Int("scale", 1, "workload scale factor (>= 1)")
	workers := flag.Int("workers", 0,
		"per-trace slices profiled in parallel (0/1 = one slice, -1 = all cores); results are identical for any value")
	progress := flag.Bool("progress", false, "report pipeline stages and search progress on stderr")
	flag.Parse()
	if err := cliutil.ValidateScale(*scale); err != nil {
		cliutil.Usagef("tables", "%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := experiments.Options{Workers: *workers}
	if *progress {
		opt.Events = cliutil.ProgressSink(os.Stderr)
	}
	run := func(name string, fn func() error) {
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	want := func(name string) bool { return *table == "all" || *table == name }

	any := false
	if want("eq3") {
		any = true
		run("eq3", func() error {
			experiments.RenderEq3(os.Stdout)
			return nil
		})
	}
	if want("1") {
		any = true
		run("table 1", func() error {
			experiments.RenderTable1(os.Stdout)
			return nil
		})
	}
	if want("exp1") {
		any = true
		run("experiment 1", func() error {
			rows, err := experiments.Experiment1(ctx, opt, *scale)
			if err != nil {
				return err
			}
			experiments.RenderExp1(os.Stdout, rows)
			return nil
		})
	}
	if want("2d") {
		any = true
		run("table 2 (data)", func() error {
			rows, err := experiments.Table2(ctx, opt, workloads.MediaSuite(), nil, false, *scale)
			if err != nil {
				return err
			}
			experiments.RenderTable2(os.Stdout, rows, false)
			return nil
		})
	}
	if want("2i") {
		any = true
		run("table 2 (instruction)", func() error {
			rows, err := experiments.Table2(ctx, opt, workloads.MediaSuite(), nil, true, *scale)
			if err != nil {
				return err
			}
			experiments.RenderTable2(os.Stdout, rows, true)
			return nil
		})
	}
	if want("2x") {
		any = true
		run("table 2 (extra suite)", func() error {
			for _, instr := range []bool{false, true} {
				rows, err := experiments.Table2(ctx, opt, workloads.ExtraSuite(), nil, instr, *scale)
				if err != nil {
					return err
				}
				experiments.RenderTable2(os.Stdout, rows, instr)
				fmt.Println()
			}
			return nil
		})
	}
	if want("3") {
		any = true
		run("table 3", func() error {
			rows, err := experiments.Table3(ctx, opt, nil, *scale)
			if err != nil {
				return err
			}
			experiments.RenderTable3(os.Stdout, rows)
			return nil
		})
	}
	if want("cross") {
		any = true
		run("cross-application extension", func() error {
			res, err := experiments.CrossApplication(ctx, opt, nil, 4, *scale)
			if err != nil {
				return err
			}
			experiments.RenderCrossApplication(os.Stdout, res, 4)
			return nil
		})
	}
	if want("assoc") {
		any = true
		run("associativity extension", func() error {
			rows, err := experiments.AssociativityComparison(ctx, opt, nil, 4, *scale)
			if err != nil {
				return err
			}
			experiments.RenderAssociativity(os.Stdout, rows, 4)
			return nil
		})
	}
	if want("fixed") {
		any = true
		run("fixed-vs-tuned extension", func() error {
			rows, err := experiments.FixedVsTuned(ctx, opt, nil, 4, *scale)
			if err != nil {
				return err
			}
			experiments.RenderFixedVsTuned(os.Stdout, rows, 4)
			return nil
		})
	}
	if want("aslr") {
		any = true
		run("ASLR robustness extension", func() error {
			rows, err := experiments.ASLRRobustness(ctx, opt, "fft", 4, *scale,
				[]uint64{0, 0x1000, 0x10000, 0x3450, 0x81230})
			if err != nil {
				return err
			}
			experiments.RenderASLR(os.Stdout, "fft", rows, 4)
			return nil
		})
	}
	if want("repl") {
		any = true
		run("replacement ablation", func() error {
			rows, err := experiments.ReplacementAblation(ctx, opt, nil, 4, *scale)
			if err != nil {
				return err
			}
			experiments.RenderReplacement(os.Stdout, rows, 4)
			return nil
		})
	}
	if want("energy") {
		any = true
		run("energy extension", func() error {
			rows, err := experiments.EnergyComparison(ctx, opt, nil, 4, *scale)
			if err != nil {
				return err
			}
			experiments.RenderEnergy(os.Stdout, rows, 4)
			return nil
		})
	}
	if want("sweep") {
		any = true
		run("miss-curve extension", func() error {
			for _, bench := range []string{"fft", "rijndael"} {
				pts, err := experiments.SizeSweep(ctx, opt, bench, nil, *scale)
				if err != nil {
					return err
				}
				experiments.RenderSweep(os.Stdout, bench, pts)
				fmt.Println()
			}
			return nil
		})
	}
	if want("phase") {
		any = true
		run("phase-reconfiguration extension", func() error {
			rows, err := experiments.PhaseReconfiguration(ctx, opt, "fft", "adpcm_dec", 4, *scale,
				[]int{100, 1000, 10000, 100000})
			if err != nil {
				return err
			}
			experiments.RenderPhase(os.Stdout, "fft", "adpcm_dec", rows, 4)
			return nil
		})
	}
	if !any {
		fmt.Fprintf(os.Stderr, "tables: unknown table %q (want 1, 2d, 2i, 3, exp1, eq3, cross, assoc, phase, sweep, fixed, energy, repl, aslr, 2x, all)\n", *table)
		os.Exit(2)
	}
}
