package experiments

// Extension experiments beyond the paper's tables, quantifying claims
// the paper makes in prose:
//
//   - CrossApplication: §1 argues "a hash function that minimizes
//     conflict misses for one application does not necessarily perform
//     well for another application, making it beneficial to tune the
//     hash function to the executing application" — the whole case for
//     reconfigurable (rather than fixed) XOR hardware. The experiment
//     tunes a function per application and evaluates every function on
//     every application.
//
//   - AssociativityComparison: §2 cites the skewed-associative cache
//     (Seznec & Bodin) as the fixed-hash alternative. The experiment
//     pits the application-specific direct-mapped XOR cache against a
//     2-way set-associative cache and a 2-way skewed-associative cache
//     of the same capacity.

import (
	"context"
	"fmt"

	"xoridx/internal/cache"
	"xoridx/internal/core"
	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/hwcost"
	"xoridx/internal/lru"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
)

// CrossRow is one tuned function evaluated across all applications.
type CrossRow struct {
	TunedFor string
	// RemovedPct[i] is the % of misses removed on benchmark i (same
	// order as the Benchmarks field of CrossApplicationResult).
	RemovedPct []float64
}

// CrossApplicationResult is the full cross-evaluation matrix.
type CrossApplicationResult struct {
	Benchmarks []string
	Rows       []CrossRow
}

// CrossApplication tunes a permutation-based 2-input function for
// each named benchmark's data trace on the given cache size, then
// evaluates every function on every benchmark (nil names = a
// representative four-benchmark subset).
func CrossApplication(ctx context.Context, opt Options, names []string, cacheKB, scale int) (*CrossApplicationResult, error) {
	if len(names) == 0 {
		names = []string{"fft", "adpcm_dec", "susan", "rijndael"}
	}
	cfg := core.Config{
		CacheBytes: cacheKB * 1024,
		BlockBytes: BlockBytes,
		AddrBits:   AddrBits,
		Workers:    opt.Workers,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2,
		NoFallback: true,
	}
	traces := make([]*trace.Trace, len(names))
	funcs := make([]*hash.XOR, len(names))
	baselines := make([]uint64, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		traces[i] = w.Data(scale)
		res, err := core.Tune(ctx, traces[i], cfg, opt.Events)
		if err != nil {
			return nil, fmt.Errorf("tuning for %s: %w", name, err)
		}
		funcs[i] = res.Func
		baselines[i] = res.Baseline.Misses
	}
	out := &CrossApplicationResult{Benchmarks: names}
	for i, name := range names {
		row := CrossRow{TunedFor: name, RemovedPct: make([]float64, len(names))}
		dm := cache.Config{SizeBytes: cfg.CacheBytes, BlockBytes: BlockBytes, Ways: 1, Index: funcs[i].Matrix()}
		for j := range names {
			st, err := cache.Simulate(ctx, traces[j], dm)
			if err != nil {
				return nil, err
			}
			if baselines[j] > 0 {
				row.RemovedPct[j] = 100 * (1 - float64(st[0].Misses)/float64(baselines[j]))
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// MatchedMinusMismatched summarises the cross matrix: the average
// diagonal (matched) removal minus the average off-diagonal
// (mismatched) removal, in percentage points. A large positive value is
// the quantitative case for reconfigurability.
func (r *CrossApplicationResult) MatchedMinusMismatched() float64 {
	var diag, off float64
	var nDiag, nOff int
	for i, row := range r.Rows {
		for j, pct := range row.RemovedPct {
			if i == j {
				diag += pct
				nDiag++
			} else {
				off += pct
				nOff++
			}
		}
	}
	if nDiag == 0 || nOff == 0 {
		return 0
	}
	return diag/float64(nDiag) - off/float64(nOff)
}

// AssocRow compares organisations of equal capacity on one benchmark.
type AssocRow struct {
	Bench        string
	DMModulo     uint64 // direct mapped, conventional indexing
	DMXOR        uint64 // direct mapped, application-specific 2-in XOR
	TwoWay       uint64 // 2-way set associative, LRU, modulo indexing
	Skewed       uint64 // 2-way skewed associative (fixed XOR per bank)
	Victim       uint64 // direct mapped + 4-entry victim buffer (Jouppi)
	FullyAssoc   uint64 // fully associative LRU (lower-ish bound)
	TotalAccess  uint64
	OpsThousands float64
}

// AssociativityComparison runs the named benchmarks (nil = default
// subset) on a cacheKB-sized cache under five organisations.
func AssociativityComparison(ctx context.Context, opt Options, names []string, cacheKB, scale int) ([]AssocRow, error) {
	if len(names) == 0 {
		names = []string{"fft", "adpcm_dec", "susan", "mpeg2_dec"}
	}
	cacheBytes := cacheKB * 1024
	var rows []AssocRow
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := w.Data(scale)
		cfg := core.Config{
			CacheBytes: cacheBytes,
			BlockBytes: BlockBytes,
			AddrBits:   AddrBits,
			Workers:    opt.Workers,
			Family:     hash.FamilyPermutation,
			MaxInputs:  2,
		}
		res, err := core.Tune(ctx, tr, cfg, opt.Events)
		if err != nil {
			return nil, err
		}
		row := AssocRow{
			Bench:        name,
			DMModulo:     res.Baseline.Misses,
			DMXOR:        res.Optimized.Misses,
			TotalAccess:  res.Baseline.Accesses,
			OpsThousands: float64(tr.OpsOrLen()) / 1000,
		}

		// 2-way set associative with conventional indexing, and fully
		// associative LRU, in one pass.
		m2 := cfg.SetBits() - 1
		st, err := cache.Simulate(ctx, tr, cache.Config{
			SizeBytes:  cacheBytes,
			BlockBytes: BlockBytes,
			Ways:       2,
			Index:      gf2.Identity(AddrBits, m2),
		}, cache.Config{
			SizeBytes:  cacheBytes,
			BlockBytes: BlockBytes,
			Ways:       cacheBytes / BlockBytes,
			Index:      gf2.Identity(AddrBits, 0),
		})
		if err != nil {
			return nil, err
		}
		row.TwoWay, row.FullyAssoc = st[0].Misses, st[1].Misses

		// 2-way skewed associative with the fixed inter-bank hashes of
		// Seznec & Bodin: bank 0 conventional, bank 1 XORs high bits in.
		h1 := gf2.Identity(AddrBits, m2)
		for c := 0; c < m2 && m2+c < AddrBits; c++ {
			h1.Cols[c] |= gf2.Unit(m2 + c)
		}
		sk, err := cache.NewSkewed(BlockBytes, []gf2.Matrix{gf2.Identity(AddrBits, m2), h1})
		if err != nil {
			return nil, err
		}
		blocks := tr.Blocks(BlockBytes, AddrBits)
		for _, b := range blocks {
			sk.AccessBlock(b)
		}
		row.Skewed = sk.Stats().Misses

		// Direct mapped + 4-entry victim buffer (Jouppi's mitigation).
		vc, err := cache.NewVictim(cache.Config{
			SizeBytes:  cacheBytes,
			BlockBytes: BlockBytes,
			Ways:       1,
		}, 4)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			vc.AccessBlock(b)
		}
		row.Victim = vc.Stats().Misses

		rows = append(rows, row)
	}
	return rows, nil
}

// PhaseRow reports the multiprogramming experiment for one quantum.
type PhaseRow struct {
	Quantum    int    // context-switch quantum in accesses
	Switches   int    // number of context switches in the merged trace
	Modulo     uint64 // conventional indexing throughout
	Compromise uint64 // one XOR function tuned on the merged trace
	Reconfig   uint64 // per-application functions, swap (and flush) at each switch
}

// PhaseReconfiguration models two applications time-sharing one
// cache: their data traces are interleaved with the given quantum and
// run under (a) modulo indexing, (b) a single compromise XOR function
// tuned on the merged trace, and (c) per-application reconfiguration,
// where the index function is swapped — with the mandatory cache
// flush — at every context switch. This extends the paper's
// per-application story to the multiprogrammed setting its
// introduction alludes to: the reconfiguration win must pay for the
// flushes, so it grows with the quantum.
func PhaseReconfiguration(ctx context.Context, opt Options, benchA, benchB string, cacheKB, scale int, quanta []int) ([]PhaseRow, error) {
	wa, err := workloads.ByName(benchA)
	if err != nil {
		return nil, err
	}
	wb, err := workloads.ByName(benchB)
	if err != nil {
		return nil, err
	}
	ta, tb := wa.Data(scale), wb.Data(scale)
	cfg := core.Config{
		CacheBytes: cacheKB * 1024,
		BlockBytes: BlockBytes,
		AddrBits:   AddrBits,
		Workers:    opt.Workers,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2,
		NoFallback: true,
	}
	resA, err := core.Tune(ctx, ta, cfg, opt.Events)
	if err != nil {
		return nil, err
	}
	resB, err := core.Tune(ctx, tb, cfg, opt.Events)
	if err != nil {
		return nil, err
	}
	perApp := []*hash.XOR{resA.Func, resB.Func}

	var rows []PhaseRow
	for _, q := range quanta {
		merged, switches := trace.Interleave(benchA+"+"+benchB, q, ta, tb)
		row := PhaseRow{Quantum: q, Switches: len(switches)}

		// (a) modulo throughout.
		dm := cache.Config{SizeBytes: cfg.CacheBytes, BlockBytes: BlockBytes, Ways: 1, Index: gf2.Identity(AddrBits, cfg.SetBits())}
		mod, err := cache.Simulate(ctx, merged, dm)
		if err != nil {
			return nil, err
		}
		row.Modulo = mod[0].Misses

		// (b) one compromise function tuned on the merged trace.
		comp, err := core.Tune(ctx, merged, cfg, opt.Events)
		if err != nil {
			return nil, err
		}
		row.Compromise = comp.Optimized.Misses

		// (c) per-application reconfiguration with flush at switches.
		dm.Index = perApp[0].Matrix()
		c, err := cache.New(dm)
		if err != nil {
			return nil, err
		}
		cur := 0
		bounds := append(append([]int{}, switches...), merged.Len())
		app := 0
		for _, end := range bounds {
			if err := core.Check(ctx); err != nil {
				return nil, err
			}
			for i := cur; i < end; i++ {
				c.Access(merged.Accesses[i].Addr)
			}
			cur = end
			app = 1 - app
			if cur < merged.Len() {
				if err := c.SetIndex(perApp[app].Matrix()); err != nil {
					return nil, err
				}
			}
		}
		row.Reconfig = c.Stats().Misses
		rows = append(rows, row)
	}
	return rows, nil
}

// SweepPoint is one cache size of a miss-curve sweep.
type SweepPoint struct {
	CacheBytes int
	Modulo     uint64 // conventional direct-mapped
	TunedXOR   uint64 // per-size tuned permutation-based 2-in function
	TwoWayXOR  uint64 // 2-way set-associative with the tuned function
	FullAssoc  uint64 // fully-associative LRU bound
}

// SizeSweep traces one benchmark's miss counts across cache sizes,
// comparing conventional indexing, the tuned XOR function (re-tuned
// per size, as a reconfigurable deployment would), the tuned function
// on a 2-way cache (hashing and associativity compose), and the
// FA-LRU reference. It generalises the paper's three-size tables into
// a curve.
func SizeSweep(ctx context.Context, opt Options, bench string, sizes []int, scale int) ([]SweepPoint, error) {
	w, err := workloads.ByName(bench)
	if err != nil {
		return nil, err
	}
	tr := w.Data(scale)
	if len(sizes) == 0 {
		sizes = []int{512, 1024, 2048, 4096, 8192, 16384, 32768}
	}
	var out []SweepPoint
	for _, size := range sizes {
		cfg := core.Config{
			CacheBytes: size,
			BlockBytes: BlockBytes,
			AddrBits:   AddrBits,
			Workers:    opt.Workers,
			Family:     hash.FamilyPermutation,
			MaxInputs:  2,
		}
		// One profile serves both geometries: its capacity filter is the
		// cache size in blocks, whatever the associativity.
		pl := core.Pipeline{Config: cfg, Events: opt.Events}
		p, err := pl.Profile(ctx, tr)
		if err != nil {
			return nil, fmt.Errorf("%s @ %dB: %w", bench, size, err)
		}
		res, err := core.TuneProfiled(ctx, tr, p, cfg, opt.Events)
		if err != nil {
			return nil, fmt.Errorf("%s @ %dB: %w", bench, size, err)
		}
		// Compose the tuned hashing idea with 2-way associativity: tune
		// a fresh function for the 2-way geometry (one fewer set bit),
		// reported unguarded.
		cfg.Ways, cfg.NoFallback = 2, true
		res2, err := core.TuneProfiled(ctx, tr, p, cfg, opt.Events)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			CacheBytes: size,
			Modulo:     res.Baseline.Misses,
			TunedXOR:   res.Optimized.Misses,
			TwoWayXOR:  res2.Optimized.Misses,
			FullAssoc:  lru.FAMisses(tr.Blocks(BlockBytes, AddrBits), size/BlockBytes),
		})
	}
	return out, nil
}

// FixedRow compares fixed (application-independent) hashes against the
// application-specific function on one benchmark: the head-to-head the
// paper's premise rests on (generic hashing helps, tuning helps more).
type FixedRow struct {
	Bench    string
	Modulo   uint64 // conventional
	Folded   uint64 // González-style address folding (paper ref. [5])
	Poly     uint64 // Rau's polynomial hash (paper ref. [9])
	Tuned    uint64 // application-specific permutation 2-in (guarded)
	Accesses uint64
}

// FixedVsTuned runs the named benchmarks (nil = representative
// subset) on a direct-mapped cache under the four index functions.
func FixedVsTuned(ctx context.Context, opt Options, names []string, cacheKB, scale int) ([]FixedRow, error) {
	if len(names) == 0 {
		names = []string{"fft", "adpcm_dec", "susan", "rijndael", "mpeg2_dec"}
	}
	cacheBytes := cacheKB * 1024
	var rows []FixedRow
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := w.Data(scale)
		cfg := core.Config{
			CacheBytes: cacheBytes,
			BlockBytes: BlockBytes,
			AddrBits:   AddrBits,
			Workers:    opt.Workers,
			Family:     hash.FamilyPermutation,
			MaxInputs:  2,
		}
		res, err := core.Tune(ctx, tr, cfg, opt.Events)
		if err != nil {
			return nil, err
		}
		m := cfg.SetBits()
		folded, err := hash.FoldedXOR(AddrBits, m)
		if err != nil {
			return nil, err
		}
		poly, err := hash.PolynomialHash(AddrBits, m)
		if err != nil {
			return nil, err
		}
		st, err := cache.Simulate(ctx, tr,
			cache.Config{SizeBytes: cacheBytes, BlockBytes: BlockBytes, Ways: 1, Index: folded.Matrix()},
			cache.Config{SizeBytes: cacheBytes, BlockBytes: BlockBytes, Ways: 1, Index: poly.Matrix()})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FixedRow{
			Bench:    name,
			Modulo:   res.Baseline.Misses,
			Folded:   st[0].Misses,
			Poly:     st[1].Misses,
			Tuned:    res.Optimized.Misses,
			Accesses: res.Baseline.Accesses,
		})
	}
	return rows, nil
}

// EnergyRow reports modelled memory-system energy for one benchmark
// under three organisations of equal capacity.
type EnergyRow struct {
	Bench     string
	DMModulo  float64 // µJ: direct mapped, conventional indexing
	DMXOR     float64 // µJ: direct mapped + reconfigurable 2-in XOR network
	TwoWay    float64 // µJ: 2-way set associative
	XORvsMod  float64 // % energy saved by XOR over modulo
	XORvs2Way float64 // % energy XOR saves over 2-way
}

// EnergyComparison combines the exact simulations (miss +
// writeback traffic) with the hwcost energy model — the quantitative
// form of the paper's §1 power motivation. Per-access energy uses the
// Fig. 2b permutation network for the XOR column.
func EnergyComparison(ctx context.Context, opt Options, names []string, cacheKB, scale int) ([]EnergyRow, error) {
	if len(names) == 0 {
		names = []string{"fft", "adpcm_dec", "susan", "mpeg2_dec"}
	}
	em := hwcost.DefaultEnergy()
	cacheBytes := cacheKB * 1024
	var rows []EnergyRow
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := w.Data(scale)
		cfg := core.Config{
			CacheBytes: cacheBytes,
			BlockBytes: BlockBytes,
			AddrBits:   AddrBits,
			Workers:    opt.Workers,
			Family:     hash.FamilyPermutation,
			MaxInputs:  2,
		}
		res, err := core.Tune(ctx, tr, cfg, opt.Events)
		if err != nil {
			return nil, err
		}
		m := cfg.SetBits()

		// Re-run with full stats (Simulate tracks writes/writebacks).
		st, err := cache.Simulate(ctx, tr,
			cache.Config{SizeBytes: cacheBytes, BlockBytes: BlockBytes, Ways: 1, Index: gf2.Identity(AddrBits, m)},
			cache.Config{SizeBytes: cacheBytes, BlockBytes: BlockBytes, Ways: 1, Index: res.Func.Matrix()},
			cache.Config{SizeBytes: cacheBytes, BlockBytes: BlockBytes, Ways: 2, Index: gf2.Identity(AddrBits, m-1)})
		if err != nil {
			return nil, err
		}
		sMod, sXOR, sTwo := st[0], st[1], st[2]

		toMicro := 1e-6
		eMod := em.TotalEnergy(sMod.Accesses, sMod.MemoryTraffic(),
			em.AccessEnergy(cacheBytes, 1, AddrBits, m, -1)) * toMicro
		eXOR := em.TotalEnergy(sXOR.Accesses, sXOR.MemoryTraffic(),
			em.AccessEnergy(cacheBytes, 1, AddrBits, m, hwcost.PermutationXOR2)) * toMicro
		eTwo := em.TotalEnergy(sTwo.Accesses, sTwo.MemoryTraffic(),
			em.AccessEnergy(cacheBytes, 2, AddrBits, m-1, -1)) * toMicro
		rows = append(rows, EnergyRow{
			Bench:     name,
			DMModulo:  eMod,
			DMXOR:     eXOR,
			TwoWay:    eTwo,
			XORvsMod:  100 * (1 - eXOR/eMod),
			XORvs2Way: 100 * (1 - eXOR/eTwo),
		})
	}
	return rows, nil
}

// ReplRow compares replacement policies with and without XOR indexing.
type ReplRow struct {
	Bench                    string
	LRUMod, FIFOMod, RandMod uint64 // 2-way modulo under each policy
	LRUXOR                   uint64 // 2-way with a tuned XOR index, LRU
	DMXOR                    uint64 // direct-mapped tuned XOR (no policy at all)
}

// ReplacementAblation crosses replacement policy with indexing on
// 2-way caches of the given size: application-specific hashing
// attacks the same misses replacement policies do, from the indexing
// side.
func ReplacementAblation(ctx context.Context, opt Options, names []string, cacheKB, scale int) ([]ReplRow, error) {
	if len(names) == 0 {
		names = []string{"fft", "susan", "mpeg2_dec"}
	}
	cacheBytes := cacheKB * 1024
	var rows []ReplRow
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := w.Data(scale)
		m2 := 0
		for v := 1; v < cacheBytes/BlockBytes/2; v <<= 1 {
			m2++
		}
		// Tune for the 2-way geometry.
		res2, err := core.Tune(ctx, tr, core.Config{
			CacheBytes: cacheBytes, BlockBytes: BlockBytes, AddrBits: AddrBits,
			Ways: 2, Family: hash.FamilyPermutation, MaxInputs: 2, Workers: opt.Workers,
		}, opt.Events)
		if err != nil {
			return nil, err
		}
		// And for the direct-mapped geometry.
		res1, err := core.Tune(ctx, tr, core.Config{
			CacheBytes: cacheBytes, BlockBytes: BlockBytes, AddrBits: AddrBits,
			Family: hash.FamilyPermutation, MaxInputs: 2, Workers: opt.Workers,
		}, opt.Events)
		if err != nil {
			return nil, err
		}
		twoWay := func(repl cache.Replacement, h gf2.Matrix) cache.Config {
			return cache.Config{SizeBytes: cacheBytes, BlockBytes: BlockBytes, Ways: 2, Index: h, Repl: repl}
		}
		mod := gf2.Identity(AddrBits, m2)
		st, err := cache.Simulate(ctx, tr,
			twoWay(cache.LRU, mod), twoWay(cache.FIFO, mod), twoWay(cache.Random, mod), twoWay(cache.LRU, res2.Func.Matrix()))
		if err != nil {
			return nil, err
		}
		rows = append(rows, ReplRow{
			Bench:   name,
			LRUMod:  st[0].Misses,
			FIFOMod: st[1].Misses,
			RandMod: st[2].Misses,
			LRUXOR:  st[3].Misses,
			DMXOR:   res1.Optimized.Misses,
		})
	}
	return rows, nil
}

// ASLRRow reports the robustness of a tuned function to a load-address
// shift of the whole program image.
type ASLRRow struct {
	Bench      string
	Delta      uint64  // byte shift applied to every address
	TunedPct   float64 // % removed by the function tuned at the original base
	RetunedPct float64 // % removed after re-profiling at the new base
}

// ASLRRobustness tunes a function for each benchmark at its
// original load address, then evaluates it after the whole image
// moves by each delta — the situation a deployed per-application
// function meets under address-space layout randomisation.
// Page-multiple shifts preserve the intra-page conflict structure, so
// the tuned function should hold up; re-tuning at the new base is the
// upper bound.
func ASLRRobustness(ctx context.Context, opt Options, bench string, cacheKB, scale int, deltas []uint64) ([]ASLRRow, error) {
	w, err := workloads.ByName(bench)
	if err != nil {
		return nil, err
	}
	base := w.Data(scale)
	cfg := core.Config{
		CacheBytes: cacheKB * 1024,
		BlockBytes: BlockBytes,
		AddrBits:   AddrBits,
		Workers:    opt.Workers,
		Family:     hash.FamilyPermutation,
		MaxInputs:  2,
		NoFallback: true,
	}
	tuned, err := core.Tune(ctx, base, cfg, opt.Events)
	if err != nil {
		return nil, err
	}
	var rows []ASLRRow
	for _, delta := range deltas {
		moved := base.Rebase(delta)
		dm := cache.Config{SizeBytes: cfg.CacheBytes, BlockBytes: BlockBytes, Ways: 1, Index: gf2.Identity(AddrBits, cfg.SetBits())}
		staleCfg := dm
		staleCfg.Index = tuned.Func.Matrix()
		st, err := cache.Simulate(ctx, moved, dm, staleCfg)
		if err != nil {
			return nil, err
		}
		baseline, stale := st[0], st[1]
		re, err := core.Tune(ctx, moved, cfg, opt.Events)
		if err != nil {
			return nil, err
		}
		pct := func(m uint64) float64 {
			if baseline.Misses == 0 {
				return 0
			}
			return 100 * (1 - float64(m)/float64(baseline.Misses))
		}
		rows = append(rows, ASLRRow{
			Bench:      bench,
			Delta:      delta,
			TunedPct:   pct(stale.Misses),
			RetunedPct: pct(re.Optimized.Misses),
		})
	}
	return rows, nil
}
