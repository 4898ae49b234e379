package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xoridx/internal/workloads"
)

func TestCrossApplicationMotivatesReconfigurability(t *testing.T) {
	// §1's premise: matched functions beat mismatched ones on average.
	res, err := CrossApplication(context.Background(), Options{}, []string{"fft", "adpcm_dec", "susan"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(res.Rows[0].RemovedPct) != 3 {
		t.Fatalf("matrix shape wrong: %+v", res)
	}
	gap := res.MatchedMinusMismatched()
	if gap <= 5 {
		t.Errorf("matched-vs-mismatched gap = %.1f points; reconfigurability case should be strong", gap)
	}
	// Each diagonal entry should be the best in its column (the
	// function tuned for an app should win on that app) within noise.
	for j := range res.Benchmarks {
		diag := res.Rows[j].RemovedPct[j]
		for i := range res.Rows {
			if res.Rows[i].RemovedPct[j] > diag+1.0 {
				t.Errorf("function tuned for %s beats the matched function on %s (%.1f > %.1f)",
					res.Benchmarks[i], res.Benchmarks[j], res.Rows[i].RemovedPct[j], diag)
			}
		}
	}
}

func TestCrossApplicationUnknownBench(t *testing.T) {
	if _, err := CrossApplication(context.Background(), Options{}, []string{"nope"}, 4, 1); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestAssociativityComparison(t *testing.T) {
	rows, err := AssociativityComparison(context.Background(), Options{}, []string{"fft", "adpcm_dec"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Sanity: every organisation sees the same accesses; FA-LRU on
		// these workloads is at least competitive with direct-mapped
		// modulo; the tuned XOR function (guard enabled) never loses to
		// the DM baseline.
		if r.DMXOR > r.DMModulo {
			t.Errorf("%s: guarded XOR (%d) worse than modulo (%d)", r.Bench, r.DMXOR, r.DMModulo)
		}
		if r.TwoWay > r.DMModulo*2 {
			t.Errorf("%s: 2-way (%d) catastrophically worse than DM (%d)?", r.Bench, r.TwoWay, r.DMModulo)
		}
		if r.TotalAccess == 0 {
			t.Errorf("%s: no accesses recorded", r.Bench)
		}
	}
	// The paper's headline on fft-like stride workloads: the tuned
	// direct-mapped XOR cache rivals (here: beats or matches) a 2-way
	// associative cache of the same capacity.
	fft := rows[0]
	if fft.DMXOR > fft.TwoWay {
		t.Errorf("fft: tuned DM XOR (%d) should rival 2-way associativity (%d)", fft.DMXOR, fft.TwoWay)
	}
}

func TestAssociativityComparisonUnknownBench(t *testing.T) {
	if _, err := AssociativityComparison(context.Background(), Options{}, []string{"nope"}, 4, 1); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestMatchedMinusMismatchedEmpty(t *testing.T) {
	r := &CrossApplicationResult{}
	if r.MatchedMinusMismatched() != 0 {
		t.Fatal("empty matrix should give 0")
	}
}

func TestPhaseReconfiguration(t *testing.T) {
	rows, err := PhaseReconfiguration(context.Background(), Options{}, "fft", "adpcm_dec", 4, 1, []int{1000, 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Switches == 0 {
			t.Errorf("quantum %d: no context switches recorded", r.Quantum)
		}
		// Both XOR schemes must beat raw modulo indexing here: the two
		// workloads individually have large removable conflict shares.
		if r.Compromise >= r.Modulo {
			t.Errorf("quantum %d: compromise (%d) does not beat modulo (%d)", r.Quantum, r.Compromise, r.Modulo)
		}
		if r.Reconfig >= r.Modulo {
			t.Errorf("quantum %d: reconfig (%d) does not beat modulo (%d)", r.Quantum, r.Reconfig, r.Modulo)
		}
	}
	// With a larger quantum the flush cost amortises, so reconfiguration
	// must not get worse as the quantum grows.
	if rows[1].Reconfig > rows[0].Reconfig {
		t.Errorf("reconfig misses grew with quantum: %d (q=%d) vs %d (q=%d)",
			rows[1].Reconfig, rows[1].Quantum, rows[0].Reconfig, rows[0].Quantum)
	}
}

func TestPhaseReconfigurationUnknownBench(t *testing.T) {
	if _, err := PhaseReconfiguration(context.Background(), Options{}, "nope", "fft", 4, 1, []int{100}); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
	if _, err := PhaseReconfiguration(context.Background(), Options{}, "fft", "nope", 4, 1, []int{100}); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestSizeSweep(t *testing.T) {
	pts, err := SizeSweep(context.Background(), Options{}, "fft", []int{1024, 4096, 16384}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		// The tuned function (with the §6 guard) never loses to modulo.
		if p.TunedXOR > p.Modulo {
			t.Errorf("size %d: tuned XOR (%d) worse than modulo (%d)", p.CacheBytes, p.TunedXOR, p.Modulo)
		}
		// Misses shrink (weakly) as capacity grows, for every policy.
		if i > 0 {
			prev := pts[i-1]
			if p.Modulo > prev.Modulo || p.FullAssoc > prev.FullAssoc {
				t.Errorf("misses grew with capacity: %+v -> %+v", prev, p)
			}
		}
	}
	// On fft the composition of hashing and 2-way associativity should
	// rival the FA bound at the middle size.
	mid := pts[1]
	if mid.TwoWayXOR > mid.Modulo {
		t.Errorf("2-way+XOR (%d) worse than DM modulo (%d)", mid.TwoWayXOR, mid.Modulo)
	}
}

func TestSizeSweepDefaultsAndErrors(t *testing.T) {
	if _, err := SizeSweep(context.Background(), Options{}, "nope", nil, 1); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestFixedVsTuned(t *testing.T) {
	rows, err := FixedVsTuned(context.Background(), Options{}, []string{"fft", "adpcm_dec"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The tuned function (guarded) never loses to modulo, and must
		// beat or match both fixed hashes on the benchmark it was tuned
		// for — the paper's core premise.
		if r.Tuned > r.Modulo {
			t.Errorf("%s: tuned (%d) worse than modulo (%d)", r.Bench, r.Tuned, r.Modulo)
		}
		if r.Tuned > r.Folded+r.Folded/20 {
			t.Errorf("%s: tuned (%d) clearly worse than fixed folding (%d)", r.Bench, r.Tuned, r.Folded)
		}
		if r.Tuned > r.Poly+r.Poly/20 {
			t.Errorf("%s: tuned (%d) clearly worse than polynomial hashing (%d)", r.Bench, r.Tuned, r.Poly)
		}
	}
}

func TestFixedVsTunedUnknownBench(t *testing.T) {
	if _, err := FixedVsTuned(context.Background(), Options{}, []string{"nope"}, 4, 1); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestEnergyComparison(t *testing.T) {
	rows, err := EnergyComparison(context.Background(), Options{}, []string{"fft", "susan"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DMXOR <= 0 || r.DMModulo <= 0 || r.TwoWay <= 0 {
			t.Fatalf("%s: non-positive energy: %+v", r.Bench, r)
		}
		// Conflict-heavy workloads: XOR saves energy over modulo (fewer
		// transfers at nearly the same access energy).
		if r.XORvsMod <= 0 {
			t.Errorf("%s: XOR should save energy over modulo: %+v", r.Bench, r)
		}
	}
}

func TestEnergyComparisonUnknownBench(t *testing.T) {
	if _, err := EnergyComparison(context.Background(), Options{}, []string{"nope"}, 4, 1); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestReplacementAblation(t *testing.T) {
	rows, err := ReplacementAblation(context.Background(), Options{}, []string{"fft"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// XOR indexing on the 2-way cache must beat every replacement
	// policy under modulo indexing on this stride-bound workload.
	for name, misses := range map[string]uint64{"LRU": r.LRUMod, "FIFO": r.FIFOMod, "random": r.RandMod} {
		if r.LRUXOR >= misses {
			t.Errorf("2-way XOR (%d) should beat %s-modulo (%d)", r.LRUXOR, name, misses)
		}
	}
	if r.DMXOR == 0 || r.LRUXOR == 0 {
		t.Fatal("zero misses is implausible")
	}
}

func TestReplacementAblationUnknown(t *testing.T) {
	if _, err := ReplacementAblation(context.Background(), Options{}, []string{"nope"}, 4, 1); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestASLRRobustness(t *testing.T) {
	rows, err := ASLRRobustness(context.Background(), Options{}, "fft", 4, 1, []uint64{0, 0x10000, 0x12340})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Zero shift: stale == freshly applicable (same trace).
	if rows[0].TunedPct < rows[0].RetunedPct-1 {
		t.Errorf("zero shift should keep the tuned function optimal: %+v", rows[0])
	}
	// A 64 KB shift (multiple of 2^16) leaves the hashed low bits
	// untouched entirely: stale must equal the zero-shift result.
	if d := rows[1].TunedPct - rows[0].TunedPct; d > 0.5 || d < -0.5 {
		t.Errorf("2^16-multiple shift changed the stale function's result: %+v vs %+v", rows[1], rows[0])
	}
	// Arbitrary shift: re-tuning is always at least as good as stale.
	if rows[2].RetunedPct < rows[2].TunedPct-1 {
		t.Errorf("re-tuning should not lose to the stale function: %+v", rows[2])
	}
}

func TestASLRUnknownBench(t *testing.T) {
	if _, err := ASLRRobustness(context.Background(), Options{}, "nope", 4, 1, []uint64{0}); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestExtensionRenderers(t *testing.T) {
	var buf bytes.Buffer
	RenderCrossApplication(&buf, &CrossApplicationResult{
		Benchmarks: []string{"a", "b"},
		Rows: []CrossRow{
			{TunedFor: "a", RemovedPct: []float64{50, 10}},
			{TunedFor: "b", RemovedPct: []float64{5, 60}},
		},
	}, 4)
	if !strings.Contains(buf.String(), "matched minus mismatched: 47.5 points") {
		t.Errorf("cross render:\n%s", buf.String())
	}
	buf.Reset()
	RenderAssociativity(&buf, []AssocRow{{Bench: "x", DMModulo: 100, OpsThousands: 1}}, 4)
	if !strings.Contains(buf.String(), "victim+4") {
		t.Errorf("assoc render:\n%s", buf.String())
	}
	buf.Reset()
	RenderPhase(&buf, "a", "b", []PhaseRow{{Quantum: 10, Switches: 3, Modulo: 9, Compromise: 5, Reconfig: 7}}, 4)
	if !strings.Contains(buf.String(), "reconfig") {
		t.Errorf("phase render:\n%s", buf.String())
	}
	buf.Reset()
	RenderFixedVsTuned(&buf, []FixedRow{{Bench: "y", Modulo: 7, Folded: 6, Poly: 5, Tuned: 4}}, 4)
	if !strings.Contains(buf.String(), "poly[9]") {
		t.Errorf("fixed render:\n%s", buf.String())
	}
	buf.Reset()
	RenderSweep(&buf, "z", []SweepPoint{{CacheBytes: 1024, Modulo: 5, TunedXOR: 3, TwoWayXOR: 2, FullAssoc: 1}})
	if !strings.Contains(buf.String(), "2way+XOR") {
		t.Errorf("sweep render:\n%s", buf.String())
	}
	buf.Reset()
	RenderEnergy(&buf, []EnergyRow{{Bench: "e", DMModulo: 2, DMXOR: 1, TwoWay: 1.5, XORvsMod: 50, XORvs2Way: 33}}, 4)
	if !strings.Contains(buf.String(), "XOR vs mod") {
		t.Errorf("energy render:\n%s", buf.String())
	}
	buf.Reset()
	RenderReplacement(&buf, []ReplRow{{Bench: "r", LRUMod: 1, FIFOMod: 2, RandMod: 3, LRUXOR: 1, DMXOR: 1}}, 4)
	if !strings.Contains(buf.String(), "FIFO-mod") {
		t.Errorf("repl render:\n%s", buf.String())
	}
	buf.Reset()
	RenderASLR(&buf, "w", []ASLRRow{{Delta: 0x1000, TunedPct: 40, RetunedPct: 42}}, 4)
	if !strings.Contains(buf.String(), "stale tuned") {
		t.Errorf("aslr render:\n%s", buf.String())
	}
}

func TestScaleTwoSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 smoke in short mode")
	}
	// Larger inputs must flow through the whole pipeline unchanged.
	rows, err := Table2(context.Background(), Options{}, workloads.MediaSuite(), []string{"adpcm_dec"}, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Cells[1].RemovedPct[0] < 50 {
		t.Errorf("scale-2 adpcm_dec 4KB removal %.1f%%", rows[0].Cells[1].RemovedPct[0])
	}
}
