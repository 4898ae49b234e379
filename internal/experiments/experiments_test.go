package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xoridx/internal/workloads"
)

func TestTable1Values(t *testing.T) {
	want := map[string][3]int{
		"bit-select":           {256, 256, 256},
		"optimized bit-select": {144, 136, 112},
		"general XOR":          {252, 261, 250},
		"permutation-based":    {72, 70, 60},
	}
	for _, row := range Table1() {
		if got := want[row.Style.String()]; got != row.Switches {
			t.Errorf("%v: %v, paper %v", row.Style, row.Switches, got)
		}
	}
}

func TestRenderTable1(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	out := buf.String()
	for _, frag := range []string{"Table 1", "permutation-based", "72", "252"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestRenderEq3(t *testing.T) {
	var buf bytes.Buffer
	RenderEq3(&buf)
	out := buf.String()
	if !strings.Contains(out, "3.40e+38") && !strings.Contains(out, "3.4") {
		t.Errorf("matrix count missing:\n%s", out)
	}
	if !strings.Contains(out, "12870") {
		t.Errorf("C(16,8) missing:\n%s", out)
	}
}

func TestTable2SubsetShape(t *testing.T) {
	// fft is the canonical stride-conflict benchmark: XOR indexing must
	// remove a large fraction of its 1 KB and 4 KB data-cache misses.
	rows, err := Table2(context.Background(), Options{}, workloads.MediaSuite(), []string{"fft", "adpcm_dec"}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	fft := rows[0]
	if fft.Bench != "fft" {
		t.Fatalf("row order wrong: %v", fft.Bench)
	}
	if fft.Cells[0].RemovedPct[0] < 30 {
		t.Errorf("fft 1KB 2-in removal %.1f%%, want >= 30%%", fft.Cells[0].RemovedPct[0])
	}
	if fft.Cells[1].RemovedPct[0] < 30 {
		t.Errorf("fft 4KB 2-in removal %.1f%%, want >= 30%%", fft.Cells[1].RemovedPct[0])
	}
	// adpcm_dec: big reduction at 4 KB, tiny base at 16 KB (paper shape).
	ad := rows[1]
	if ad.Cells[1].RemovedPct[0] < 50 {
		t.Errorf("adpcm_dec 4KB removal %.1f%%, want >= 50%%", ad.Cells[1].RemovedPct[0])
	}
	if ad.Cells[2].BaseMissesPerKOp > 5 {
		t.Errorf("adpcm_dec 16KB base %.1f misses/Kop, want tiny", ad.Cells[2].BaseMissesPerKOp)
	}
	// 4-in can never be worse than 2-in by more than noise, and 16-in
	// no worse than 4-in (larger family).
	for _, r := range rows {
		for si := range r.Cells {
			c := r.Cells[si]
			if c.RemovedPct[1] < c.RemovedPct[0]-1 {
				t.Errorf("%s size %d: 4-in (%.1f) below 2-in (%.1f)", r.Bench, si, c.RemovedPct[1], c.RemovedPct[0])
			}
			if c.RemovedPct[2] < c.RemovedPct[1]-1 {
				t.Errorf("%s size %d: 16-in (%.1f) below 4-in (%.1f)", r.Bench, si, c.RemovedPct[2], c.RemovedPct[1])
			}
		}
	}
}

func TestTable2InstructionSubset(t *testing.T) {
	// rijndael instruction trace: the paper's signature result — nearly
	// all 16 KB misses removed, nearly nothing at 1/4 KB (capacity).
	rows, err := Table2(context.Background(), Options{}, workloads.MediaSuite(), []string{"rijndael"}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Cells[2].RemovedPct[0] < 90 {
		t.Errorf("rijndael I-cache 16KB removal %.1f%%, paper says ~100%%", r.Cells[2].RemovedPct[0])
	}
	if r.Cells[0].RemovedPct[0] > 10 {
		t.Errorf("rijndael I-cache 1KB removal %.1f%%, paper says ~0%% (capacity bound)", r.Cells[0].RemovedPct[0])
	}
}

func TestTable2AverageRow(t *testing.T) {
	rows := []Table2Row{
		{Bench: "a", Cells: [3]Table2Cell{{BaseMissesPerKOp: 10, RemovedPct: [3]float64{20, 30, 40}}}},
		{Bench: "b", Cells: [3]Table2Cell{{BaseMissesPerKOp: 30, RemovedPct: [3]float64{40, 50, 60}}}},
	}
	avg := Table2Average(rows)
	if avg.Cells[0].BaseMissesPerKOp != 20 {
		t.Fatalf("avg base = %v", avg.Cells[0].BaseMissesPerKOp)
	}
	if avg.Cells[0].RemovedPct != [3]float64{30, 40, 50} {
		t.Fatalf("avg pct = %v", avg.Cells[0].RemovedPct)
	}
	empty := Table2Average(nil)
	if empty.Bench != "average" {
		t.Fatal("empty average wrong")
	}
}

func TestTable3Subset(t *testing.T) {
	rows, err := Table3(context.Background(), Options{}, []string{"crc", "pocsag", "engine"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Bench] = r
	}
	// crc: nothing to remove (paper: all-zero row).
	crc := byName["crc"]
	if crc.OptPct != 0 || crc.In2Pct != 0 || crc.FAPct != 0 {
		t.Errorf("crc row should be ~zero: %+v", crc)
	}
	// pocsag: XOR functions fix what no bit selection can (paper's
	// g3fax/des/v42 pattern: opt == 0 but 2-in > 0).
	poc := byName["pocsag"]
	if poc.In2Pct <= poc.OptPct {
		t.Errorf("pocsag: 2-in (%.1f) should beat optimal bit-select (%.1f)", poc.In2Pct, poc.OptPct)
	}
	// engine: conflicts removable by everything, including FA.
	eng := byName["engine"]
	if eng.OptPct < 20 || eng.In2Pct < 20 || eng.FAPct < 20 {
		t.Errorf("engine row should show large removal everywhere: %+v", eng)
	}
	// Invariant: the heuristic bit-select can never beat the optimal
	// bit-select on the same trace (both exact totals).
	for _, r := range rows {
		if r.In1Pct > r.OptPct+0.2 {
			t.Errorf("%s: heuristic 1-in (%.2f) beats optimal (%.2f)?", r.Bench, r.In1Pct, r.OptPct)
		}
	}
}

func TestTable3AverageRow(t *testing.T) {
	rows := []Table3Row{
		{OptPct: 10, In1Pct: 8, In2Pct: 12, In4Pct: 14, In16: 16, FAPct: 20},
		{OptPct: 20, In1Pct: 18, In2Pct: 22, In4Pct: 24, In16: 26, FAPct: 30},
	}
	avg := Table3Average(rows)
	if avg.OptPct != 15 || avg.In1Pct != 13 || avg.FAPct != 25 {
		t.Fatalf("average wrong: %+v", avg)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	RenderTable2(&buf, []Table2Row{{Bench: "x"}}, false)
	if !strings.Contains(buf.String(), "data caches") || !strings.Contains(buf.String(), "average") {
		t.Error("table 2 render missing pieces")
	}
	buf.Reset()
	RenderTable2(&buf, nil, true)
	if !strings.Contains(buf.String(), "instruction caches") {
		t.Error("instruction header missing")
	}
	buf.Reset()
	RenderTable3(&buf, []Table3Row{{Bench: "y", OptPct: 1.5}})
	if !strings.Contains(buf.String(), "y") || !strings.Contains(buf.String(), "1.5") {
		t.Error("table 3 render missing pieces")
	}
	buf.Reset()
	RenderExp1(&buf, []Exp1Row{{CacheKB: 4, GeneralPct: 44, PermPct: 43.9}})
	if !strings.Contains(buf.String(), "general XOR") || !strings.Contains(buf.String(), "44.0") {
		t.Error("exp1 render missing pieces")
	}
}

func TestExperiment1SingleSizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment 1 full sweep in short mode")
	}
	rows, err := Experiment1(context.Background(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// The paper's claim: permutation-based functions track general
		// XOR functions closely (within a few points on average).
		if r.GeneralPct-r.PermPct > 10 {
			t.Errorf("%dKB: permutation (%.1f) trails general (%.1f) too far", r.CacheKB, r.PermPct, r.GeneralPct)
		}
		// And the general family, being a superset searched from the
		// same start, should not lose badly either.
		if r.PermPct-r.GeneralPct > 10 {
			t.Errorf("%dKB: general (%.1f) trails permutation (%.1f) too far", r.CacheKB, r.GeneralPct, r.PermPct)
		}
	}
}
