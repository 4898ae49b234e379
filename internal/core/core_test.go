package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/search"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
)

// thrashTrace alternates between two blocks that alias under modulo
// indexing in a cache with the given number of sets.
func thrashTrace(sets int, reps int) *trace.Trace {
	tr := &trace.Trace{Name: "thrash", Ops: uint64(reps * 8)}
	for i := 0; i < reps; i++ {
		tr.Append(0, trace.Read)
		tr.Append(uint64(sets*4), trace.Read) // same set, different tag
	}
	return tr
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{CacheBytes: 1024}.withDefaults()
	if cfg.BlockBytes != 4 || cfg.AddrBits != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.SetBits() != 8 {
		t.Fatalf("SetBits = %d", cfg.SetBits())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                  // no cache size
		{CacheBytes: 1000},                  // non-power-of-two blocks
		{CacheBytes: 1024, BlockBytes: 3},   // bad block size
		{CacheBytes: 1024, AddrBits: 8},     // n <= set bits
		{CacheBytes: 4, BlockBytes: 4},      // single block
		{CacheBytes: 1 << 40, AddrBits: 30}, // blocks not power of two? (it is; but n too small)
	}
	for i, cfg := range bad {
		if _, err := Tune(context.Background(), &trace.Trace{}, cfg, nil); err == nil {
			t.Errorf("config %d (%+v) should be rejected", i, cfg)
		}
	}
}

// TestConfigBackendDomain pins the histogram backends a Config accepts:
// the address width alone picks the flat table or the sparse map, so
// only "", "auto" and "sketch" are valid, and the sketch cannot be
// checkpointed.
func TestConfigBackendDomain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run")
	cases := []struct {
		backend, path string
		ok            bool
	}{
		{"", "", true},
		{"auto", "", true},
		{"sketch", "", true},
		{"auto", path, true},
		{"flat", "", false},
		{"sparse", "", false},
		{"cms", "", false},
		{"sketch", path, false},
	}
	for _, c := range cases {
		_, err := Config{CacheBytes: 1024, Backend: c.backend, CheckpointPath: c.path}.Normalized()
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Backend %q CheckpointPath %q: err = %v, want ok=%v or a wrapped ErrInvalidOptions",
				c.backend, c.path, err, c.ok)
		}
	}
}

// TestConfigAlgorithmDomain pins the search algorithms a Config accepts:
// annealing searches general XOR and the constructive heuristic
// permutation-based functions. A bad pair, an unknown algorithm or an
// unknown family fails validation, so Tune rejects it before it reads
// the trace.
func TestConfigAlgorithmDomain(t *testing.T) {
	cases := []struct {
		algo   search.Algorithm
		family hash.Family
		ok     bool
	}{
		{search.HillClimb, hash.FamilyBitSelect, true},
		{search.Anneal, hash.FamilyGeneralXOR, true},
		{search.Constructive, hash.FamilyPermutation, true},
		{search.Anneal, hash.FamilyPermutation, false},
		{search.Constructive, hash.FamilyGeneralXOR, false},
		{search.Algorithm(9), hash.FamilyPermutation, false},
		{search.HillClimb, hash.Family(9), false},
	}
	for _, c := range cases {
		cfg := Config{CacheBytes: 1024, Family: c.family, Algorithm: c.algo}
		_, err := cfg.Normalized()
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%v on %v: err = %v, want ok=%v or a wrapped ErrInvalidOptions", c.algo, c.family, err, c.ok)
		}
		if c.ok {
			continue
		}
		src := &countingSource{Source: thrashTrace(256, 10)}
		if _, err := Tune(context.Background(), src, cfg, nil); !errors.Is(err, ErrInvalidOptions) || src.passes != 0 {
			t.Errorf("%v on %v: Tune err = %v after %d trace passes, want ErrInvalidOptions before any", c.algo, c.family, err, src.passes)
		}
	}
}

// TestTuneAlgorithmReachesSearch pins that Config.Algorithm selects the
// search the pipeline runs: Tune's search result is search.Construct's
// with the same options on the same profile.
func TestTuneAlgorithmReachesSearch(t *testing.T) {
	tr := thrashTrace(256, 200)
	for _, cfg := range []Config{
		{CacheBytes: 1024, Family: hash.FamilyGeneralXOR, Algorithm: search.Anneal, Seed: 3},
		{CacheBytes: 1024, Family: hash.FamilyPermutation, MaxInputs: 2, Algorithm: search.Constructive},
	} {
		res, err := Tune(context.Background(), tr, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := search.Construct(context.Background(), res.Profile, 8, search.Options{
			Family: cfg.Family, MaxInputs: cfg.MaxInputs, Seed: cfg.Seed, Algorithm: cfg.Algorithm})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Search, want) {
			t.Errorf("%v: Tune searched %+v, want %+v", cfg.Algorithm, res.Search, want)
		}
		if res.Optimized.Misses >= res.Baseline.Misses {
			t.Errorf("%v: %d misses, baseline %d: the thrash was not removed",
				cfg.Algorithm, res.Optimized.Misses, res.Baseline.Misses)
		}
	}
}

func TestTuneRemovesThrash(t *testing.T) {
	tr := thrashTrace(256, 200)
	res, err := Tune(context.Background(), tr, Config{CacheBytes: 1024, Family: hash.FamilyPermutation, MaxInputs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Misses != 400 {
		t.Fatalf("baseline misses = %d, want 400 (pure thrash)", res.Baseline.Misses)
	}
	if res.Optimized.Misses != 2 {
		t.Fatalf("optimized misses = %d, want 2 compulsory", res.Optimized.Misses)
	}
	if res.UsedFallback {
		t.Fatal("fallback should not fire")
	}
	if got := res.MissesRemoved(); got < 0.99 {
		t.Fatalf("MissesRemoved = %v", got)
	}
	if !res.Func.Matrix().IsPermutationBased() {
		t.Fatal("function should be permutation-based")
	}
	if res.Func.Matrix().MaxInputs() > 2 {
		t.Fatal("function exceeds 2 inputs")
	}
}

func TestTuneGeneralXORFamily(t *testing.T) {
	tr := thrashTrace(256, 100)
	res, err := Tune(context.Background(), tr, Config{CacheBytes: 1024, Family: hash.FamilyGeneralXOR}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized.Misses >= res.Baseline.Misses {
		t.Fatalf("general XOR did not help: %d vs %d", res.Optimized.Misses, res.Baseline.Misses)
	}
}

func TestFallbackGuard(t *testing.T) {
	// A trace with almost no conflicts: the search may pick a function
	// equal-or-better on the estimate; whatever happens, with the guard
	// enabled the final function must never be worse than conventional.
	tr := &trace.Trace{Name: "seq", Ops: 100000}
	for i := 0; i < 30000; i++ {
		tr.Append(uint64(i*4), trace.Read)
	}
	res, err := Tune(context.Background(), tr, Config{CacheBytes: 1024, Family: hash.FamilyPermutation, MaxInputs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized.Misses > res.Baseline.Misses {
		t.Fatalf("guarded result worse than baseline: %d vs %d", res.Optimized.Misses, res.Baseline.Misses)
	}
	if res.UsedFallback && res.Func.Matrix().MaxInputs() != 1 {
		t.Fatal("fallback must select the conventional function")
	}
}

func TestTuneProfiledReusesProfile(t *testing.T) {
	tr := thrashTrace(256, 100)
	cfg := Config{CacheBytes: 1024, Family: hash.FamilyPermutation, MaxInputs: 2}
	p, err := (&Pipeline{Config: cfg}).Profile(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxIn := range []int{2, 4, 0} {
		c := cfg
		c.MaxInputs = maxIn
		res, err := TuneProfiled(context.Background(), tr, p, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimized.Misses != 2 {
			t.Fatalf("maxIn=%d: misses %d", maxIn, res.Optimized.Misses)
		}
		if res.Profile != p {
			t.Fatal("profile not propagated")
		}
	}
}

func TestTuneProfiledValidatesProfileShape(t *testing.T) {
	tr := thrashTrace(256, 10)
	p, _ := (&Pipeline{Config: Config{CacheBytes: 1024}}).Profile(context.Background(), tr)
	// Wrong cache size for this profile.
	if _, err := TuneProfiled(context.Background(), tr, p, Config{CacheBytes: 4096}, nil); err == nil {
		t.Fatal("capacity mismatch must be rejected")
	}
	// Wrong AddrBits.
	if _, err := TuneProfiled(context.Background(), tr, p, Config{CacheBytes: 1024, AddrBits: 14}, nil); err == nil {
		t.Fatal("n mismatch must be rejected")
	}
}

func TestMissesRemovedZeroBaseline(t *testing.T) {
	r := &Result{}
	if r.MissesRemoved() != 0 {
		t.Fatal("zero baseline must give 0")
	}
}

func TestDescribeFunction(t *testing.T) {
	f := hash.Modulo(8, 3)
	s := DescribeFunction(f)
	for _, frag := range []string{"bit-selecting", "matrix", "null space"} {
		if !strings.Contains(s, frag) {
			t.Errorf("description missing %q:\n%s", frag, s)
		}
	}
}

func TestTuneSetAssociative(t *testing.T) {
	// Four blocks aliasing to one set thrash even a 2-way cache; a
	// function tuned for the 2-way geometry separates them.
	tr := &trace.Trace{Name: "quad", Ops: 4000}
	for i := 0; i < 100; i++ {
		for _, b := range []uint64{0, 512 * 4, 1024 * 4, 1536 * 4} {
			tr.Append(b, trace.Read)
		}
	}
	res, err := Tune(context.Background(), tr, Config{CacheBytes: 1024, Ways: 2, Family: hash.FamilyPermutation, MaxInputs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Func.Matrix().M; m != 7 { // 128 sets of 2 ways
		t.Fatalf("set bits = %d, want 7", m)
	}
	if res.Baseline.Misses != 400 {
		t.Fatalf("2-way baseline should thrash on 4 aliases: %d", res.Baseline.Misses)
	}
	if res.Optimized.Misses != 4 {
		t.Fatalf("tuned 2-way should keep all four resident: %d misses", res.Optimized.Misses)
	}
}

func TestTuneWaysValidation(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(0, trace.Read)
	if _, err := Tune(context.Background(), tr, Config{CacheBytes: 1024, Ways: 3}, nil); err == nil {
		t.Error("non-power-of-two ways must fail")
	}
	if _, err := Tune(context.Background(), tr, Config{CacheBytes: 1024, Ways: 256}, nil); err == nil {
		t.Error("fully-associative geometry must fail (nothing to tune)")
	}
}

func TestMicroControls(t *testing.T) {
	// stride: everything removable; randwalk: nothing removable and the
	// guard keeps us at (or above) the conventional function.
	st, err := workloads.ByName("stride")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(context.Background(), st.Data(1), Config{CacheBytes: 4096, Family: hash.FamilyPermutation, MaxInputs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissesRemoved() < 0.95 {
		t.Errorf("stride control: only %.1f%% removed", 100*res.MissesRemoved())
	}
	rw, err := workloads.ByName("randwalk")
	if err != nil {
		t.Fatal(err)
	}
	res, err = Tune(context.Background(), rw.Data(1), Config{CacheBytes: 4096, Family: hash.FamilyPermutation, MaxInputs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized.Misses > res.Baseline.Misses {
		t.Error("guard must hold on the negative control")
	}
	if res.MissesRemoved() > 0.05 {
		t.Errorf("randwalk control: %.1f%% removed from structureless noise?", 100*res.MissesRemoved())
	}
}

// TestWorkersInvariance pins the parallelism contract at the pipeline
// level: the Workers knob shards profiling but must not change the
// selected function or any measured number.
func TestWorkersInvariance(t *testing.T) {
	w, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Data(1)
	base := Config{CacheBytes: 1024, Family: hash.FamilyPermutation, MaxInputs: 2}
	want, err := Tune(context.Background(), tr, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 1, 2, 4} {
		cfg := base
		cfg.Workers = workers
		got, err := Tune(context.Background(), tr, cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Optimized.Misses != want.Optimized.Misses ||
			got.Baseline.Misses != want.Baseline.Misses ||
			got.Func.Matrix().String() != want.Func.Matrix().String() {
			t.Fatalf("workers=%d changed the result: %d/%d misses vs %d/%d",
				workers, got.Baseline.Misses, got.Optimized.Misses,
				want.Baseline.Misses, want.Optimized.Misses)
		}
		if d := profileDiff(got.Profile, want.Profile); d != "" {
			t.Fatalf("workers=%d: profile differs: %s", workers, d)
		}
	}
	// A trace file streamed pass by pass is the same input as the
	// in-memory trace: the same profile for either engine, with and
	// without checkpoints, and the same validated result.
	file := openFile(t, tr)
	for _, workers := range []int{1, 4} {
		for _, ckpt := range []bool{false, true} {
			cfg := base
			cfg.Workers = workers
			if ckpt {
				cfg.CheckpointPath = filepath.Join(t.TempDir(), "run")
			}
			pl := Pipeline{Config: cfg}
			fromTrace, err := pl.Profile(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			fromFile, err := pl.Profile(context.Background(), file)
			if err != nil {
				t.Fatal(err)
			}
			if d := profileDiff(fromTrace, want.Profile); d != "" {
				t.Fatalf("workers=%d checkpoint=%v: Profile differs: %s", workers, ckpt, d)
			}
			if d := profileDiff(fromFile, fromTrace); d != "" {
				t.Fatalf("workers=%d checkpoint=%v: file Profile differs from in-memory Profile: %s", workers, ckpt, d)
			}
		}
	}
	got, err := Tune(context.Background(), file, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Baseline != want.Baseline || got.Optimized != want.Optimized ||
		got.Func.Matrix().String() != want.Func.Matrix().String() {
		t.Fatalf("file source changed the result: %+v/%+v vs %+v/%+v",
			got.Baseline, got.Optimized, want.Baseline, want.Optimized)
	}
}

// openFile writes tr to a binary trace file and opens it as a Source.
func openFile(t testing.TB, tr *trace.Trace) *trace.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.xtr")
	writeTrace(t, path, tr)
	f, err := trace.OpenFile(context.Background(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// writeTrace encodes tr into the binary file at path.
func writeTrace(t testing.TB, path string, tr *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// profileDiff compares the parts of a profile the search consumes.
func profileDiff(got, want *profile.Profile) string {
	if got.Accesses != want.Accesses || got.Compulsory != want.Compulsory ||
		got.Capacity != want.Capacity || got.Candidates != want.Candidates ||
		got.TotalPairs != want.TotalPairs {
		return "bookkeeping differs"
	}
	for v := range want.Table {
		if got.Table[v] != want.Table[v] {
			return "table differs"
		}
	}
	return ""
}
