package xoridx

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/serve"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
)

// updateGolden rewrites testdata/golden.json from the current code.
// A rewrite moves reproduced paper numbers, so it needs a CHANGES.md
// line explaining the shift.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenCell is the end-to-end fingerprint of one tuned kernel: the
// null space the search chose, its Eq. 4 estimate, and the exact miss
// counts of conventional and tuned indexing. Family is empty for the
// general-XOR section and names the function family otherwise.
type goldenCell struct {
	Kernel    string `json:"kernel"`
	Family    string `json:"family,omitempty"`
	NullSpace string `json:"null_space"`
	Estimated uint64 `json:"estimated"`
	Baseline  uint64 `json:"baseline_misses"`
	Optimized uint64 `json:"optimized_misses"`
}

// goldenFamilies lists golden.json's sections in file order: general
// XOR, then permutation-based functions with at most two XOR inputs
// per set bit, the paper's proposed hardware.
var goldenFamilies = []string{"", "permutation"}

// goldenConfig is the tuning problem every cell solves: a 4 KB
// direct-mapped cache and n = 16, with the section's function family.
func goldenConfig(family string, workers int) core.Config {
	cfg := core.Config{CacheBytes: 4096, BlockBytes: 4, AddrBits: 16,
		Family: hash.FamilyGeneralXOR, Workers: workers}
	if family == "permutation" {
		cfg.Family, cfg.MaxInputs = hash.FamilyPermutation, 2
	}
	return cfg
}

// goldenKernels lists the 28 Media, PowerStone and Extra data kernels
// in golden.json order.
func goldenKernels() []workloads.Workload {
	var ws []workloads.Workload
	for _, suite := range [][]workloads.Workload{workloads.MediaSuite(), workloads.PowerStoneSuite(), workloads.ExtraSuite()} {
		ws = append(ws, suite...)
	}
	return ws
}

func cellOf(name, family string, res *core.Result) goldenCell {
	return goldenCell{
		Kernel:    name,
		Family:    family,
		NullSpace: res.Search.Matrix.NullSpace().Key(),
		Estimated: res.Search.Estimated,
		Baseline:  res.Baseline.Misses,
		Optimized: res.Optimized.Misses,
	}
}

// goldenCells tunes every kernel at scale 1 in every section with the
// given worker count. moves[i] is cell i's number of hill-climbing
// moves.
func goldenCells(t *testing.T, workers int) (cells []goldenCell, moves []int) {
	t.Helper()
	for _, family := range goldenFamilies {
		for _, w := range goldenKernels() {
			res, err := core.Tune(context.Background(), w.Data(1), goldenConfig(family, workers), nil)
			if err != nil {
				t.Fatalf("%s %s: %v", family, w.Name, err)
			}
			cells = append(cells, cellOf(w.Name, family, res))
			moves = append(moves, res.Search.Iterations)
		}
	}
	return cells, moves
}

// killResumeCells rebuilds every cell through a checkpointed run that
// is killed at a seeded point and then resumed. A mid-profile kill
// cancels once the profiling pass has handed out a seeded number of
// accesses; a mid-search kill cancels on a seeded SearchProgress event,
// so it needs the kernel's move count. Every kill must land, and both
// kinds must occur.
func killResumeCells(t *testing.T, moves []int) []goldenCell {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var cells []goldenCell
	kinds := map[string]int{}
	kernels := goldenKernels()
	for i := range moves {
		family, w := goldenFamilies[i/len(kernels)], kernels[i%len(kernels)]
		tr := w.Data(1)
		cfg := goldenConfig(family, 1)
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "run")
		cfg.Resume = true
		killAccess, killMove := 0, 0
		if moves[i] > 0 && rng.Intn(2) == 0 {
			killMove = 1 + rng.Intn(moves[i])
			kinds["search"]++
		} else {
			killAccess = 1 + rng.Intn(tr.Len())
			kinds["profile"]++
		}

		ctx, cancel := context.WithCancel(context.Background())
		done := 0
		pl := core.Pipeline{Config: cfg, Events: core.SinkFunc(func(e core.Event) {
			if e.Kind == core.SearchProgress {
				if done++; done == killMove {
					cancel()
				}
			}
		})}
		p, err := pl.Profile(ctx, &killSource{Trace: tr, at: killAccess, cancel: cancel})
		if err == nil {
			_, err = core.TuneProfiled(ctx, tr, p, cfg, pl.Events)
		}
		cancel()
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("%s: kill at access %d / move %d did not land: %v", w.Name, killAccess, killMove, err)
		}

		res, err := core.Tune(context.Background(), tr, cfg, nil)
		if err != nil {
			t.Fatalf("%s: resume: %v", w.Name, err)
		}
		cells = append(cells, cellOf(w.Name, family, res))
	}
	if kinds["profile"] == 0 || kinds["search"] == 0 {
		t.Fatalf("kills landed %d times mid-profile and %d times mid-search; want both kinds",
			kinds["profile"], kinds["search"])
	}
	t.Logf("kill/resume: %d kills mid-profile, %d mid-search", kinds["profile"], kinds["search"])
	return cells
}

// killSource is a trace whose passes cancel once they have handed out
// at least `at` accesses (never when at is 0).
type killSource struct {
	*trace.Trace
	at     int
	cancel context.CancelFunc
}

func (s *killSource) Pass(ctx context.Context) (trace.Pass, error) {
	p, err := s.Trace.Pass(ctx)
	return &killPass{Pass: p, src: s}, err
}

type killPass struct {
	trace.Pass
	src  *killSource
	seen int
}

func (p *killPass) Chunk() ([]trace.Access, error) {
	chunk, err := p.Pass.Chunk()
	if p.seen += len(chunk); p.src.at > 0 && p.seen >= p.src.at {
		p.src.cancel()
	}
	return chunk, err
}

// checkCells compares one execution path's cells against golden.json.
func checkCells(t *testing.T, path string, got, want []goldenCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, golden has %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: cell %d drifted:\n got %+v\nwant %+v", path, i, got[i], want[i])
		}
	}
}

// serveCells rebuilds every general-XOR cell's null space and estimate
// through the tuning service: a single-shard server at decay 0 ingests
// the kernel's blocks in one window and runs one Retune, whose epoch
// must publish what the batch tune chose.
func serveCells(t *testing.T, want []goldenCell) []goldenCell {
	t.Helper()
	var cells []goldenCell
	for i, w := range goldenKernels() {
		cfg := goldenConfig("", 1)
		s, err := serve.New(serve.Options{Config: cfg, Shards: 1, WindowAccesses: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		err = s.IngestBlocks(0, w.Data(1).Blocks(cfg.BlockBytes, cfg.AddrBits))
		var ep *serve.Epoch
		if err == nil {
			ep, err = s.Retune(context.Background())
		}
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("serve %s: %v", w.Name, err)
		}
		// Exact simulation is the tune path's job; serve publishes only
		// the function and its estimate.
		cell := want[i]
		cell.NullSpace = ep.Func.Matrix().NullSpace().Key()
		cell.Estimated = ep.Estimated
		cells = append(cells, cell)
	}
	return cells
}

// TestGoldenFingerprint pins the reproduced results end to end: every
// worker count, and a run killed and resumed from its checkpoint, must
// rebuild testdata/golden.json exactly, and serve at decay 0 must
// publish every general-XOR cell's function and estimate.
func TestGoldenFingerprint(t *testing.T) {
	if *updateGolden {
		cells, _ := goldenCells(t, 1)
		data, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, moves := goldenCells(t, 1)
	checkCells(t, "workers=1", got, want)
	got, _ = goldenCells(t, 2)
	checkCells(t, "workers=2", got, want)
	checkCells(t, "kill/resume", killResumeCells(t, moves), want)
	general := want[:len(goldenKernels())]
	checkCells(t, "serve decay=0", serveCells(t, general), general)
}
