package search

import (
	"context"
	"fmt"
	"testing"

	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/workloads"
)

// fingerprintCase is one non-paper search of TestSearchFingerprint.
type fingerprintCase struct {
	name      string
	anneal    bool  // simulated annealing with seed
	seed      int64 // annealing seed
	maxInputs int   // constructive heuristic's fan-in bound
	warm      bool  // warm general-XOR climb from the 2-in permutation result
}

// fingerprintWant maps "kernel/cache blocks/case" to the pinned line.
var fingerprintWant = map[string]string{
	"fft/256/anneal-0":          "16:8810,4831,2881,100a,489,20f,183,56, 0 31754 10290 20000 5120000",
	"fft/256/anneal-1":          "16:8835,40ab,28ba,1887,4b2,2bf,13d,5a, 0 31754 10069 20000 5120000",
	"fft/256/anneal-7":          "16:8036,486f,201d,1037,446,253,15b,91, 0 31754 10196 20000 5120000",
	"fft/256/constructive-0":    "16:8000,4000,2000,1000,800,490,204,101, 505 31754 4 32 12695",
	"fft/256/constructive-1":    "16:8000,4000,2000,1000,800,400,200,100, 31754 31754 0 0 2393",
	"fft/256/constructive-2":    "16:8000,4000,2000,1000,800,490,204,101, 505 31754 4 27 12585",
	"fft/256/constructive-4":    "16:8000,4000,2000,1000,800,490,204,101, 505 31754 4 32 12695",
	"fft/256/warm":              "16:8000,4000,2000,1000,490,208,121,63, 0 31754 5 1040400 19144",
	"fft/1024/anneal-0":         "16:8357,4003,2328,1865,61d,9b, 77 21167 7137 20000 1280000",
	"fft/1024/anneal-1":         "16:815f,490b,20d6,195e,4a9,21e, 77 21167 7229 20000 1280000",
	"fft/1024/anneal-7":         "16:892a,4028,2012,191a,4d3,21d, 77 21167 7131 20000 1280000",
	"fft/1024/constructive-0":   "16:8000,4000,2000,1000,800,501, 541 21167 2 20 12290",
	"fft/1024/constructive-1":   "16:8000,4000,2000,1000,800,400, 21167 21167 0 0 4050",
	"fft/1024/constructive-2":   "16:8000,4000,2000,1000,800,501, 541 21167 2 20 12290",
	"fft/1024/constructive-4":   "16:8000,4000,2000,1000,800,501, 541 21167 2 20 12290",
	"fft/1024/warm":             "16:8000,4000,2000,1000,20f,89, 77 21167 6 1160082 36450",
	"susan/256/anneal-0":        "16:9241,520b,20c1,a87,602,103,20,12, 123 39639 608 20000 5120000",
	"susan/256/anneal-1":        "16:802a,50e2,208e,883,440,240,100,11, 114 39639 600 20000 5120000",
	"susan/256/anneal-7":        "16:82b1,42b2,22f1,8c0,452,113,8,4, 32 39639 583 20000 5120000",
	"susan/256/constructive-0":  "16:8000,4000,2000,1000,800,480,200,100, 686 39639 1 16 12492",
	"susan/256/constructive-1":  "16:8000,4000,2000,1000,800,400,200,100, 39639 39639 0 0 6134",
	"susan/256/constructive-2":  "16:8000,4000,2000,1000,800,480,200,100, 686 39639 1 16 12492",
	"susan/256/constructive-4":  "16:8000,4000,2000,1000,800,480,200,100, 686 39639 1 16 12492",
	"susan/256/warm":            "16:8000,4000,2020,1000,8c0,480,240,100, 0 39639 14 2210850 104278",
	"susan/1024/anneal-0":       "16:80dc,52bc,2271,858,471,109, 243 38669 1434 20000 1280000",
	"susan/1024/anneal-1":       "16:9219,5213,2082,ae4,4e8,109, 243 38669 1497 20000 1280000",
	"susan/1024/anneal-7":       "16:80ab,40c8,2268,829,448,100, 243 38669 1518 20000 1280000",
	"susan/1024/constructive-0": "16:8000,4000,2000,1000,800,400, 38669 38669 0 0 10577",
	"susan/1024/constructive-1": "16:8000,4000,2000,1000,800,400, 38669 38669 0 0 10577",
	"susan/1024/constructive-2": "16:8000,4000,2000,1000,800,400, 38669 38669 0 0 10577",
	"susan/1024/constructive-4": "16:8000,4000,2000,1000,800,400, 38669 38669 0 0 10577",
	"susan/1024/warm":           "16:8000,4000,2209,828,401,109, 243 38669 12 1933470 158655",
}

var fingerprintCases = []fingerprintCase{
	{name: "anneal-0", anneal: true, seed: 0},
	{name: "anneal-1", anneal: true, seed: 1},
	{name: "anneal-7", anneal: true, seed: 7},
	{name: "constructive-0", maxInputs: 0},
	{name: "constructive-1", maxInputs: 1},
	{name: "constructive-2", maxInputs: 2},
	{name: "constructive-4", maxInputs: 4},
	{name: "warm", warm: true},
}

// fingerprintRun runs one case on a profile with m set bits.
func fingerprintRun(ctx context.Context, p *profile.Profile, m int, c fingerprintCase) (Result, error) {
	switch {
	case c.anneal:
		return Construct(ctx, p, m, Options{Family: hash.FamilyGeneralXOR, Algorithm: Anneal, Seed: c.seed})
	case c.warm:
		from, err := Construct(ctx, p, m, Options{Family: hash.FamilyPermutation, MaxInputs: 2})
		if err != nil {
			return Result{}, err
		}
		return Construct(ctx, p, m, Options{Family: hash.FamilyGeneralXOR, Restarts: 2, Seed: 3, Warm: from.Matrix})
	default:
		return Construct(ctx, p, m, Options{Family: hash.FamilyPermutation, Algorithm: Constructive, MaxInputs: c.maxInputs})
	}
}

// TestSearchFingerprint pins the results of the searches the paper
// does not run (annealing, the constructive heuristic and the
// warm-started general-XOR climb) on two kernels at two cache sizes, so
// a refactor of the search API cannot move them silently. Each line is
// the null-space key, Estimated, Baseline, Iterations, Evaluated and
// Lookups.
func TestSearchFingerprint(t *testing.T) {
	for _, bench := range []string{"fft", "susan"} {
		w, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		blocks := w.Data(1).Blocks(4, 16)
		for _, m := range []int{8, 10} {
			p := profile.Build(blocks, 16, 1<<m)
			for _, c := range fingerprintCases {
				id := fmt.Sprintf("%s/%d/%s", bench, 1<<m, c.name)
				res, err := fingerprintRun(context.Background(), p, m, c)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				got := fmt.Sprintf("%s %d %d %d %d %d", res.Matrix.NullSpace().Key(),
					res.Estimated, res.Baseline, res.Iterations, res.Evaluated, res.Lookups)
				if got != fingerprintWant[id] {
					t.Errorf("%s: got\n\t%q: %q,\nwant %q", id, id, got, fingerprintWant[id])
				}
			}
		}
	}
}
