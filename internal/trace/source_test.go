package trace

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"xoridx/internal/xerr"
)

// readPass drains one pass of src.
func readPass(t *testing.T, src Source) [][]Access {
	t.Helper()
	pass, err := src.Pass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer pass.Close()
	var chunks [][]Access
	for {
		chunk, err := pass.Chunk()
		if err == io.EOF {
			return chunks
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 || len(chunk) > ChunkLen {
			t.Fatalf("chunk of %d accesses", len(chunk))
		}
		chunks = append(chunks, slices.Clone(chunk))
	}
}

func longTrace(n int) *Trace {
	tr := &Trace{Name: "long", Ops: uint64(3 * n)}
	for i := 0; i < n; i++ {
		tr.Append(uint64(i*i)%(1<<20)*4, Kind(i%3))
	}
	return tr
}

// TestTracePassAliasesAccesses: an in-memory pass hands out sub-slices
// of the trace's own accesses, in order, without a copy.
func TestTracePassAliasesAccesses(t *testing.T) {
	tr := longTrace(2*ChunkLen + 5)
	pass, err := tr.Pass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < tr.Len(); {
		chunk, err := pass.Chunk()
		if err != nil {
			t.Fatal(err)
		}
		if &chunk[0] != &tr.Accesses[at] || len(chunk) != min(ChunkLen, tr.Len()-at) {
			t.Fatalf("chunk at %d: %d accesses, not a sub-slice of the trace", at, len(chunk))
		}
		at += len(chunk)
	}
	if _, err := pass.Chunk(); err != io.EOF {
		t.Fatalf("after the last chunk: %v, want io.EOF", err)
	}
	if h := tr.Header(); h != (Header{Name: "long", Ops: tr.Ops, Len: uint64(tr.Len())}) {
		t.Fatalf("header %+v", h)
	}
}

// TestFilePassesMatchTrace: every pass of a File decodes the whole
// trace again, in the same chunks as the in-memory trace.
func TestFilePassesMatchTrace(t *testing.T) {
	tr := longTrace(3*ChunkLen + 17)
	path := filepath.Join(t.TempDir(), "t.xtr")
	if err := os.WriteFile(path, encode(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, retries := range []int{0, 2} {
		f, err := OpenFile(context.Background(), path, retries)
		if err != nil {
			t.Fatal(err)
		}
		if f.Header() != tr.Header() {
			t.Fatalf("file header %+v, trace header %+v", f.Header(), tr.Header())
		}
		want := readPass(t, tr)
		for pass := 0; pass < 2; pass++ {
			got := readPass(t, f)
			if !slices.EqualFunc(got, want, slices.Equal[[]Access]) {
				t.Fatalf("retries=%d pass %d: chunks differ from the in-memory trace", retries, pass)
			}
		}
	}
}

// TestFilePassRejectsChangedHeader: a pass over a file whose header no
// longer matches the one OpenFile read fails with ErrFormat.
func TestFilePassRejectsChangedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.xtr")
	if err := os.WriteFile(path, encode(t, longTrace(100)), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(context.Background(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, encode(t, longTrace(99)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pass(context.Background()); !errors.Is(err, xerr.ErrFormat) {
		t.Fatalf("pass over a rewritten file: %v, want a wrapped ErrFormat", err)
	}
}
