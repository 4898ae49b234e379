package cliutil

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

func TestParseFamily(t *testing.T) {
	cases := []struct {
		in   string
		want hash.Family
	}{
		{"permutation", hash.FamilyPermutation},
		{"general", hash.FamilyGeneralXOR},
		{"bitselect", hash.FamilyBitSelect},
	}
	for _, tc := range cases {
		got, err := ParseFamily(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFamily(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseFamily("fourier"); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("unknown family: %v, want ErrInvalidOptions", err)
	}
}

func TestValidateScale(t *testing.T) {
	if err := ValidateScale(1); err != nil {
		t.Fatal(err)
	}
	if err := ValidateScale(0); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("scale 0: %v, want ErrInvalidOptions", err)
	}
}

// TestReadTraceSniffsFormats writes the same trace in all three
// encodings and expects ReadTrace to load each without being told the
// format, and OpenTrace to open each as a source: a streamed
// trace.File for the binary encoding, the decoded trace otherwise.
func TestReadTraceSniffsFormats(t *testing.T) {
	tr := &trace.Trace{Name: "t"}
	for i := 0; i < 64; i++ {
		tr.Append(uint64(i*68), trace.Read)
	}
	dir := t.TempDir()
	encoders := map[string]func(io.Writer, *trace.Trace) error{
		"binary": trace.Encode,
		"text":   trace.EncodeText,
		"dinero": trace.EncodeDinero,
	}
	for name, enc := range encoders {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			var buf bytes.Buffer
			if err := enc(&buf, tr); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTrace(context.Background(), path, 0)
			if err != nil {
				t.Fatal(err)
			}
			src, err := OpenTrace(context.Background(), path, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, streamed := src.(*trace.File); streamed != (name == "binary") {
				t.Fatalf("OpenTrace gave a %T", src)
			}
			if h := src.Header(); h.Len != uint64(tr.Len()) {
				t.Fatalf("OpenTrace header %+v, want %d accesses", h, tr.Len())
			}
			if got.Len() != tr.Len() {
				t.Fatalf("decoded %d accesses, want %d", got.Len(), tr.Len())
			}
			for i, a := range got.Accesses {
				if a.Addr != tr.Accesses[i].Addr {
					t.Fatalf("access %d: %#x, want %#x", i, a.Addr, tr.Accesses[i].Addr)
				}
			}
		})
	}
	if _, err := ReadTrace(context.Background(), filepath.Join(dir, "missing"), 0); err == nil {
		t.Fatal("missing file must fail")
	}
	if _, err := OpenTrace(context.Background(), filepath.Join(dir, "missing"), 0); err == nil {
		t.Fatal("OpenTrace of a missing file must fail")
	}
	for _, name := range []string{"binary", "text"} {
		if _, err := ReadTrace(context.Background(), filepath.Join(dir, name), 3); err != nil {
			t.Fatalf("retry path on a clean %s file: %v", name, err)
		}
		if _, err := OpenTrace(context.Background(), filepath.Join(dir, name), 3); err != nil {
			t.Fatalf("retry path on a clean %s file: %v", name, err)
		}
	}
}

// TestProgressSinkRendering pins the line format, round tags included.
func TestProgressSinkRendering(t *testing.T) {
	var b strings.Builder
	sink := ProgressSink(&b)
	sink.Emit(core.Event{Kind: core.StageStarted, Stage: core.StageProfile})
	sink.Emit(core.Event{Kind: core.SearchProgress, Stage: core.StageSearch, Restart: 1, Iteration: 3, Evaluated: 42, Best: 7})
	sink.Emit(core.Event{Kind: core.StageFinished, Stage: core.StageSearch, Round: 5, Iteration: 9, Evaluated: 100, Best: 4})
	got := b.String()
	for _, want := range []string{
		"[profile] started\n",
		"[search] restart 1 move 3: 42 evaluated, best estimate 7\n",
		"[search] round 5 finished: 9 moves, 100 evaluated, best estimate 4\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}
