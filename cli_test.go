package xoridx

// End-to-end integration tests of the command-line toolchain:
// tracegen → xoridx (construct, save, bitstream) → xoridx -apply, and
// the tables regenerator. The binaries are built once into a temp dir.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "xoridx-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"tracegen", "xoridx", "tables"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			panic("building " + tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", tool, args, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

func runExpectFail(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v should have failed\n%s", tool, args, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "fft.xtr")
	fnFile := filepath.Join(dir, "fft.fn")

	_, stderr := run(t, "tracegen", "-bench", "fft", "-out", traceFile)
	if !strings.Contains(stderr, "accesses") {
		t.Fatalf("tracegen summary missing: %q", stderr)
	}

	stdout, _ := run(t, "xoridx", "-trace", traceFile, "-cache", "1024",
		"-verbose", "-bitstream", "-save", fnFile)
	for _, frag := range []string{
		"permutation-based (2-in)",
		"hottest conflict vectors",
		"misses removed",
		"configuration bitstream (72 bits",
		"matrix written to",
	} {
		if !strings.Contains(stdout, frag) {
			t.Errorf("xoridx output missing %q:\n%s", frag, stdout)
		}
	}

	// The saved function must reproduce the same miss count via -apply.
	applyOut, _ := run(t, "xoridx", "-trace", traceFile, "-cache", "1024", "-apply", fnFile)
	if !strings.Contains(applyOut, "misses removed") {
		t.Fatalf("apply output:\n%s", applyOut)
	}
	// Extract the optimized miss count from both outputs and compare.
	missLine := func(out, prefix string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, prefix) {
				return strings.Join(strings.Fields(line), " ")
			}
		}
		return ""
	}
	a := missLine(stdout, "optimized misses")
	b := missLine(applyOut, "applied-function misses")
	aN := strings.Fields(a)
	bN := strings.Fields(b)
	if len(aN) < 3 || len(bN) < 3 || aN[2] != bN[2] {
		t.Errorf("construct (%q) and apply (%q) disagree", a, b)
	}
}

func TestCLITracegenTextFormat(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "qurt.txt")
	run(t, "tracegen", "-bench", "qurt", "-format", "text", "-out", out)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "# name qurt") {
		t.Fatalf("text header wrong: %q", s[:60])
	}
	// Text traces feed back into xoridx (format autodetection).
	stdout, _ := run(t, "xoridx", "-trace", out, "-cache", "1024")
	if !strings.Contains(stdout, "baseline (modulo) misses") {
		t.Fatalf("xoridx on text trace:\n%s", stdout)
	}
}

func TestCLITracegenList(t *testing.T) {
	stdout, _ := run(t, "tracegen", "-list")
	for _, name := range []string{"fft", "rijndael", "ucbqsort", "v42"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("list missing %s", name)
		}
	}
}

func TestCLITracegenErrors(t *testing.T) {
	out := runExpectFail(t, "tracegen", "-bench", "nonexistent")
	if !strings.Contains(out, "unknown benchmark") {
		t.Errorf("error message: %q", out)
	}
	runExpectFail(t, "tracegen")                                    // no -bench
	runExpectFail(t, "tracegen", "-bench", "crc", "-kind", "instr") // powerstone has no instr
}

func TestCLITablesFast(t *testing.T) {
	stdout, _ := run(t, "tables", "-table", "1")
	for _, frag := range []string{"Table 1", "permutation-based", "72", "70", "60"} {
		if !strings.Contains(stdout, frag) {
			t.Errorf("table 1 output missing %q", frag)
		}
	}
	stdout, _ = run(t, "tables", "-table", "eq3")
	if !strings.Contains(stdout, "6.34e+19") {
		t.Errorf("eq3 output:\n%s", stdout)
	}
	runExpectFail(t, "tables", "-table", "bogus")
}

func TestCLIXoridxErrors(t *testing.T) {
	runExpectFail(t, "xoridx") // no trace
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xtr")
	if err := os.WriteFile(bad, []byte("R not-an-address\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runExpectFail(t, "xoridx", "-trace", bad)
	runExpectFail(t, "xoridx", "-trace", filepath.Join(dir, "missing.xtr"))

	// A negative restart count is a typed option error, not a panic in
	// validation of the empty matrix the search used to return.
	tr := filepath.Join(dir, "fft.xtr")
	run(t, "tracegen", "-bench", "fft", "-out", tr)
	out := runExpectFail(t, "xoridx", "-trace", tr, "-family", "general", "-restarts", "-1")
	if strings.Contains(out, "panic:") || !strings.Contains(out, "invalid options") {
		t.Errorf("-restarts -1 output:\n%s", out)
	}
}

// TestCLICheckpointResume runs a checkpointed tune, then resumes it: the
// resumed run restores the profile, re-runs the search, and prints the
// same report byte for byte, exact or sampled. The profile snapshot is
// the only file, and a sampled snapshot refuses a resume under another
// sampling seed.
func TestCLICheckpointResume(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "fft.xtr")
	run(t, "tracegen", "-bench", "fft", "-out", tr)
	for _, sample := range []string{"0", "16"} {
		dir := t.TempDir()
		args := []string{"-trace", tr, "-family", "general", "-maxinputs", "0", "-verbose",
			"-sample", sample, "-checkpoint", filepath.Join(dir, "run")}
		first, _ := run(t, "xoridx", args...)
		resumed, _ := run(t, "xoridx", append(args, "-resume")...)
		if resumed != first {
			t.Fatalf("-sample %s: resumed stdout differs:\n--- first\n%s\n--- resumed\n%s", sample, first, resumed)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if len(names) != 1 || names[0] != "run.profile.ckpt" {
			t.Fatalf("-sample %s: checkpoint dir holds %v, want only run.profile.ckpt", sample, names)
		}
		if sample != "0" {
			out := runExpectFail(t, "xoridx", append(args, "-resume", "-sample-seed", "3")...)
			if !strings.Contains(out, "does not match build") {
				t.Errorf("resume under another -sample-seed:\n%s", out)
			}
		}
	}
}

// TestCLIStream drives the streamed, validation-free pipeline with
// sampled profiling: it reports both Eq. 4 estimates with their 95%
// confidence intervals, and refuses -apply, which needs the whole trace.
// TestCLIStream: a binary trace is streamed off the file by profiling
// and by exact validation, and must report the same function and the
// same misses as the same trace decoded into memory from the text
// format. An approximate profile adds the Eq. 4 confidence lines to the
// exact ones.
func TestCLIStream(t *testing.T) {
	dir := t.TempDir()
	bin, txt := filepath.Join(dir, "fft.xtr"), filepath.Join(dir, "fft.txt")
	run(t, "tracegen", "-bench", "fft", "-out", bin)
	run(t, "tracegen", "-bench", "fft", "-format", "text", "-out", txt)
	streamed, _ := run(t, "xoridx", "-trace", bin, "-cache", "1024")
	loaded, _ := run(t, "xoridx", "-trace", txt, "-cache", "1024")
	if streamed != loaded {
		t.Fatalf("streamed binary trace:\n%s\nin-memory text trace:\n%s", streamed, loaded)
	}
	if !strings.Contains(streamed, "optimized misses:") {
		t.Fatalf("output has no exact miss lines:\n%s", streamed)
	}

	stdout, _ := run(t, "xoridx", "-trace", bin, "-sample", "4", "-verbose")
	for _, frag := range []string{"sampled profiling: k=4", "flat backend", "optimized misses:", "baseline (modulo) misses:"} {
		if !strings.Contains(stdout, frag) {
			t.Errorf("-sample output missing %q:\n%s", frag, stdout)
		}
	}
	estimate := func(label string) uint64 {
		m := regexp.MustCompile(regexp.QuoteMeta(label) + `\s+(\d+) ± \d+ \(95% CI, k=4\)`).FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("-sample output has no %q confidence line:\n%s", label, stdout)
		}
		v, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if base, opt := estimate("baseline (modulo):"), estimate("optimized:"); opt > base {
		t.Errorf("optimized estimate %d above baseline %d", opt, base)
	}
}

func TestCLIDineroInterop(t *testing.T) {
	dir := t.TempDir()
	din := filepath.Join(dir, "q.din")
	run(t, "tracegen", "-bench", "qurt", "-format", "dinero", "-out", din)
	data, err := os.ReadFile(din)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "0 ") {
		t.Fatalf("din output starts with %q", string(data[:8]))
	}
	stdout, _ := run(t, "xoridx", "-trace", din, "-cache", "1024")
	if !strings.Contains(stdout, "baseline (modulo) misses") {
		t.Fatalf("xoridx on din trace:\n%s", stdout)
	}
}

func TestCLIAnalyze(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "fft.xtr")
	run(t, "tracegen", "-bench", "fft", "-out", tr)
	stdout, _ := run(t, "xoridx", "-trace", tr, "-cache", "1024", "-analyze")
	for _, frag := range []string{"hottest conflict vectors", "conflicting address pairs"} {
		if !strings.Contains(stdout, frag) {
			t.Errorf("analyze output missing %q", frag)
		}
	}
}

func TestCLIVerilog(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "fft.xtr")
	vf := filepath.Join(dir, "idx.v")
	run(t, "tracegen", "-bench", "fft", "-out", tr)
	stdout, _ := run(t, "xoridx", "-trace", tr, "-cache", "1024", "-verilog", vf)
	if !strings.Contains(stdout, "Verilog module written") {
		t.Fatalf("missing confirmation:\n%s", stdout)
	}
	data, err := os.ReadFile(vf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "module xoridx_index") || !strings.Contains(string(data), "endmodule") {
		t.Fatal("emitted Verilog malformed")
	}
}

func TestCLIAlternativeAlgorithms(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "fft.xtr")
	run(t, "tracegen", "-bench", "fft", "-out", tr)
	out, _ := run(t, "xoridx", "-trace", tr, "-cache", "1024", "-algo", "constructive")
	if !strings.Contains(out, "misses removed") {
		t.Fatalf("constructive output:\n%s", out)
	}
	out, _ = run(t, "xoridx", "-trace", tr, "-cache", "1024", "-family", "general", "-algo", "anneal")
	if !strings.Contains(out, "misses removed") {
		t.Fatalf("anneal output:\n%s", out)
	}
	// Mismatched family/algo pairs are rejected.
	runExpectFail(t, "xoridx", "-trace", tr, "-algo", "anneal") // default family: permutation
	runExpectFail(t, "xoridx", "-trace", tr, "-algo", "bogus")
}

// TestCLIAlgoCheckedBeforeProfiling: an unknown -algo, or a family the
// algorithm cannot search, is reported before the profile pass reads
// the trace. The trace here has a valid XTR1 header and a corrupt first
// record, so reading it would fail with a format error instead.
func TestCLIAlgoCheckedBeforeProfiling(t *testing.T) {
	const name = "bad"
	body := append([]byte("XTR1"), byte(len(name)))
	body = append(body, name...)
	body = append(body, 0, 100) // ops 0, 100 accesses
	body = append(body, bytes.Repeat([]byte{0xff}, 64)...)
	tr := filepath.Join(t.TempDir(), "bad.xtr")
	if err := os.WriteFile(tr, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runExpectFail(t, "xoridx", "-trace", tr); !strings.Contains(out, "trace:") {
		t.Fatalf("the default tune must fail on the corrupt record:\n%s", out)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "typo"}, `unknown -algo "typo"`},
		{[]string{"-algo", "anneal", "-family", "permutation"}, "-algo anneal searches general XOR functions"},
	} {
		out := runExpectFail(t, "xoridx", append([]string{"-trace", tr}, c.args...)...)
		if !strings.Contains(out, c.want) || strings.Contains(out, "trace:") {
			t.Errorf("xoridx %v: want the usage error %q, not a format error:\n%s", c.args, c.want, out)
		}
	}
}

func TestCLISetAssociative(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "fft.xtr")
	run(t, "tracegen", "-bench", "fft", "-out", tr)
	out, _ := run(t, "xoridx", "-trace", tr, "-cache", "2048", "-ways", "2")
	if !strings.Contains(out, "2-way") || !strings.Contains(out, "(256 sets)") {
		t.Fatalf("2-way output:\n%s", out)
	}
	runExpectFail(t, "xoridx", "-trace", tr, "-cache", "2048", "-ways", "3")

	// A matrix saved from a 2-way run applies to the same geometry and
	// reproduces the run's optimized misses.
	fn := filepath.Join(dir, "f2.mat")
	out, _ = run(t, "xoridx", "-trace", tr, "-cache", "2048", "-ways", "2", "-save", fn)
	applied, _ := run(t, "xoridx", "-trace", tr, "-cache", "2048", "-ways", "2", "-apply", fn)
	tuned := regexp.MustCompile(`optimized misses:\s+(\d+)`).FindStringSubmatch(out)
	got := regexp.MustCompile(`applied-function misses:\s+(\d+)`).FindStringSubmatch(applied)
	if tuned == nil || got == nil || tuned[1] != got[1] {
		t.Fatalf("-apply of the saved 2-way matrix:\n%s\ntuning run:\n%s", applied, out)
	}
}
