// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) from the synthetic workload suites. Each
// function returns structured rows; the text renderers in render.go
// print them in the paper's layout, and cmd/tables exposes them on the
// command line. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/hwcost"
	"xoridx/internal/lru"
	"xoridx/internal/optimal"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
)

// cacheSizesKB returns the paper's three direct-mapped cache sizes. A
// function rather than a package var (arrays cannot be consts) keeps
// the package free of mutable globals.
func cacheSizesKB() [3]int { return [3]int{1, 4, 16} }

// AddrBits is the paper's n = 16 hashed address bits.
const AddrBits = 16

// BlockBytes is the paper's 4-byte cache block.
const BlockBytes = 4

// Options configures one experiment run. The zero value reproduces
// the defaults of the old package-level knobs; there is no package
// mutable state, so two drivers can run concurrently in one process
// with different options.
type Options struct {
	// Workers is threaded into every per-trace core.Config: it slices
	// the profiling pass (bit-identical results for any value); the
	// search is sequential. The drivers already fan
	// out across benchmarks, so 0 keeps each per-trace pipeline
	// sequential; cmd/tables -workers raises it when few benchmarks are
	// selected.
	Workers int
	// Events receives pipeline progress events from every tuning run
	// the driver performs; nil disables them. Shared across concurrent
	// per-benchmark pipelines, so implementations must be
	// goroutine-safe.
	Events core.Sink
}

// Table2Cell is one benchmark × cache-size entry of Table 2.
type Table2Cell struct {
	BaseMissesPerKOp float64    // conventional indexing, misses per K-op
	RemovedPct       [3]float64 // % misses removed by 2-in, 4-in, 16-in
}

// Table2Row is one benchmark row (three cache sizes).
type Table2Row struct {
	Bench string
	Cells [3]Table2Cell
}

// Table2 reproduces paper Table 2 over the benchmarks of suite
// whose names are selected (nil = all): for data caches, or for
// instruction caches when instruction is set, baseline misses/K-op and
// the percentage of misses removed by optimized permutation-based
// XOR-functions with 2, 4 and unlimited inputs. The paper's table uses
// workloads.MediaSuite; workloads.ExtraSuite runs the same protocol on
// benchmarks the paper's evaluation had no table space for. Rows are
// computed in parallel and follow the suite order; Table2Average gives
// the paper's "average" row.
func Table2(ctx context.Context, opt Options, suite []workloads.Workload, names []string, instruction bool, scale int) ([]Table2Row, error) {
	selected := selectWorkloads(suite, names)
	rows := make([]Table2Row, len(selected))
	err := forEach(ctx, len(selected), func(i int) error {
		w := selected[i]
		gen := w.Data
		if instruction {
			gen = w.Instr
		}
		tr := gen(scale)
		rows[i].Bench = w.Name
		for si, kb := range cacheSizesKB() {
			cell, err := tuneCell(ctx, opt, tr, kb*1024)
			if err != nil {
				return fmt.Errorf("%s %dKB: %w", w.Name, kb, err)
			}
			rows[i].Cells[si] = cell
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// forEach runs fn(0) … fn(n-1) concurrently, at most GOMAXPROCS at a
// time; a call that starts after ctx is done fails with a wrapped
// core.ErrCanceled instead. It returns the error of the lowest index
// that failed.
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if errs[i] = core.Check(ctx); errs[i] == nil {
				errs[i] = fn(i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tuneCell runs the 2-in/4-in/16-in sweep for one trace and cache size.
func tuneCell(ctx context.Context, opt Options, tr *trace.Trace, cacheBytes int) (Table2Cell, error) {
	cfg := core.Config{
		CacheBytes: cacheBytes,
		BlockBytes: BlockBytes,
		AddrBits:   AddrBits,
		Workers:    opt.Workers,
		Family:     hash.FamilyPermutation,
		NoFallback: true, // report raw results like the paper's tables
	}
	p, err := core.BuildProfile(ctx, tr, cfg)
	if err != nil {
		return Table2Cell{}, err
	}
	var cell Table2Cell
	for i, maxIn := range []int{2, 4, 0} {
		c := cfg
		c.MaxInputs = maxIn
		res, err := core.TuneProfiled(ctx, tr, p, c, opt.Events)
		if err != nil {
			return Table2Cell{}, err
		}
		cell.BaseMissesPerKOp = res.Baseline.MissesPerKOp(tr.OpsOrLen())
		cell.RemovedPct[i] = 100 * res.MissesRemoved()
	}
	return cell, nil
}

// Table2Average computes the paper's "average" row: mean of the base
// column and mean of each percentage column.
func Table2Average(rows []Table2Row) Table2Row {
	avg := Table2Row{Bench: "average"}
	if len(rows) == 0 {
		return avg
	}
	for si := range cacheSizesKB() {
		for _, r := range rows {
			avg.Cells[si].BaseMissesPerKOp += r.Cells[si].BaseMissesPerKOp
			for k := 0; k < 3; k++ {
				avg.Cells[si].RemovedPct[k] += r.Cells[si].RemovedPct[k]
			}
		}
		n := float64(len(rows))
		avg.Cells[si].BaseMissesPerKOp /= n
		for k := 0; k < 3; k++ {
			avg.Cells[si].RemovedPct[k] /= n
		}
	}
	return avg
}

// Exp1Row is one cache size of the first experiment (§6, in-text):
// average data-cache miss reduction of general XOR-functions vs
// permutation-based XOR-functions.
type Exp1Row struct {
	CacheKB    int
	GeneralPct float64 // average % misses removed, general XOR
	PermPct    float64 // average % misses removed, permutation-based
}

// Experiment1 reproduces the in-text comparison: the paper reports
// general 34.6/44.0/26.9% vs permutation-based 32.3/43.9/26.7% for
// 1/4/16 KB data caches — i.e. restricting the family costs almost
// nothing.
func Experiment1(ctx context.Context, opt Options, scale int) ([]Exp1Row, error) {
	suite := workloads.MediaSuite()
	traces := make([]*trace.Trace, len(suite))
	for i, w := range suite {
		traces[i] = w.Data(scale)
	}
	var rows []Exp1Row
	for _, kb := range cacheSizesKB() {
		row := Exp1Row{CacheKB: kb}
		for i := range suite {
			cfg := core.Config{
				CacheBytes: kb * 1024,
				BlockBytes: BlockBytes,
				AddrBits:   AddrBits,
				Workers:    opt.Workers,
				NoFallback: true,
			}
			p, err := core.BuildProfile(ctx, traces[i], cfg)
			if err != nil {
				return nil, err
			}
			gen := cfg
			gen.Family = hash.FamilyGeneralXOR
			gres, err := core.TuneProfiled(ctx, traces[i], p, gen, opt.Events)
			if err != nil {
				return nil, err
			}
			perm := cfg
			perm.Family = hash.FamilyPermutation
			pres, err := core.TuneProfiled(ctx, traces[i], p, perm, opt.Events)
			if err != nil {
				return nil, err
			}
			row.GeneralPct += 100 * gres.MissesRemoved()
			row.PermPct += 100 * pres.MissesRemoved()
		}
		row.GeneralPct /= float64(len(suite))
		row.PermPct /= float64(len(suite))
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3Row is one PowerStone benchmark of paper Table 3: percentage
// of misses removed by the optimal bit-selecting function, the
// heuristic families, and full associativity, on the 4 KB data cache.
type Table3Row struct {
	Bench  string
	OptPct float64 // optimal bit-selecting (exact exhaustive search)
	In1Pct float64 // heuristic bit-selecting ("1-in")
	In2Pct float64 // permutation-based, 2 inputs
	In4Pct float64 // permutation-based, 4 inputs
	In16   float64 // permutation-based, unlimited inputs
	FAPct  float64 // fully-associative LRU of equal capacity
}

// Table3MaxTrace caps the PowerStone trace length for the exhaustive
// column, mirroring the paper's use of the short PowerStone traces
// ("Because the optimal algorithm is very slow...").
const Table3MaxTrace = 60000

// Table3 reproduces paper Table 3 on the 4 KB direct-mapped data
// cache for the PowerStone benchmarks whose names are selected (nil =
// all). Rows are computed in parallel; order matches the suite.
func Table3(ctx context.Context, opt Options, names []string, scale int) ([]Table3Row, error) {
	selected := selectWorkloads(workloads.PowerStoneSuite(), names)
	rows := make([]Table3Row, len(selected))
	err := forEach(ctx, len(selected), func(i int) (err error) {
		rows[i], err = table3Row(ctx, opt, selected[i], scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// table3Row computes one Table 3 row.
func table3Row(ctx context.Context, opt Options, w workloads.Workload, scale int) (Table3Row, error) {
	const cacheBytes = 4 * 1024
	const m = 10 // 4 KB / 4 B blocks
	{
		tr := w.Data(scale)
		if tr.Len() > Table3MaxTrace {
			tr.Accesses = tr.Accesses[:Table3MaxTrace]
		}
		blocks := tr.Blocks(BlockBytes, AddrBits)
		row := Table3Row{Bench: w.Name}

		cfg := core.Config{
			CacheBytes: cacheBytes,
			BlockBytes: BlockBytes,
			AddrBits:   AddrBits,
			Workers:    opt.Workers,
			NoFallback: true,
		}
		p, err := core.BuildProfile(ctx, tr, cfg)
		if err != nil {
			return Table3Row{}, err
		}
		// Baseline for all percentages: conventional modulo indexing.
		base, err := core.TuneProfiled(ctx, tr, p, withFamily(cfg, hash.FamilyPermutation, 1), opt.Events)
		if err != nil {
			return Table3Row{}, err
		}
		baseMisses := base.Baseline.Misses
		pct := func(misses uint64) float64 {
			if baseMisses == 0 {
				return 0
			}
			return 100 * (1 - float64(misses)/float64(baseMisses))
		}

		// Optimal bit-selecting: exact exhaustive simulation.
		optRes, err := optimal.ExactBitSelect(ctx, blocks, AddrBits, m)
		if err != nil {
			return Table3Row{}, err
		}
		row.OptPct = pct(optRes.Misses)

		// Heuristic families.
		for _, fc := range []struct {
			family hash.Family
			maxIn  int
			dst    *float64
		}{
			{hash.FamilyBitSelect, 0, &row.In1Pct},
			{hash.FamilyPermutation, 2, &row.In2Pct},
			{hash.FamilyPermutation, 4, &row.In4Pct},
			{hash.FamilyPermutation, 0, &row.In16},
		} {
			res, err := core.TuneProfiled(ctx, tr, p, withFamily(cfg, fc.family, fc.maxIn), opt.Events)
			if err != nil {
				return Table3Row{}, err
			}
			*fc.dst = pct(res.Optimized.Misses)
		}

		// Fully-associative LRU of equal capacity.
		row.FAPct = pct(lru.FAMisses(blocks, cacheBytes/BlockBytes))
		return row, nil
	}
}

// selectWorkloads returns the workloads of suite named in names, in
// suite order; nil names selects them all.
func selectWorkloads(suite []workloads.Workload, names []string) []workloads.Workload {
	if len(names) == 0 {
		return suite
	}
	var selected []workloads.Workload
	for _, w := range suite {
		if slices.Contains(names, w.Name) {
			selected = append(selected, w)
		}
	}
	return selected
}

func withFamily(cfg core.Config, f hash.Family, maxIn int) core.Config {
	cfg.Family = f
	cfg.MaxInputs = maxIn
	return cfg
}

// Table3Average returns the paper's average row.
func Table3Average(rows []Table3Row) Table3Row {
	avg := Table3Row{Bench: "average"}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.OptPct += r.OptPct
		avg.In1Pct += r.In1Pct
		avg.In2Pct += r.In2Pct
		avg.In4Pct += r.In4Pct
		avg.In16 += r.In16
		avg.FAPct += r.FAPct
	}
	n := float64(len(rows))
	avg.OptPct /= n
	avg.In1Pct /= n
	avg.In2Pct /= n
	avg.In4Pct /= n
	avg.In16 /= n
	avg.FAPct /= n
	return avg
}

// Table1 re-exports the hardware-complexity table (paper Table 1).
func Table1() []hwcost.Table1Row { return hwcost.Table1() }
