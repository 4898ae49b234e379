package trace

import (
	"context"
	"fmt"
	"io"
	"os"

	"xoridx/internal/faultio"
	"xoridx/internal/xerr"
)

// Source is a trace that can be read from its first access, in chunks,
// as many times as a caller needs: the pipeline profiles it in one pass
// and validates it, simulating every cache together, in another. *Trace
// is the in-memory Source; File streams a binary trace file on every
// pass.
type Source interface {
	Header() Header
	// Pass starts a read at the first access; the caller closes it.
	// ctx bounds the waits of a pass that retries transient reads.
	Pass(ctx context.Context) (Pass, error)
}

// Header is what a trace declares ahead of its accesses.
type Header struct {
	Name string
	Ops  uint64 // operations executed, 0 if not recorded (see Trace.OpsOrLen)
	Len  uint64 // accesses
}

// Pass is one front-to-back read of a Source. Chunk returns the next
// at most ChunkLen accesses, then io.EOF after the last; a chunk is
// valid until the next call and must not be modified.
type Pass interface {
	Chunk() ([]Access, error)
	Close() error
}

// ChunkLen is the most accesses a Pass hands out at once, and so the
// granularity at which a consumer of a pass polls for cancellation.
const ChunkLen = 8192

// Header describes the in-memory trace.
func (t *Trace) Header() Header {
	return Header{Name: t.Name, Ops: t.Ops, Len: uint64(len(t.Accesses))}
}

// Pass hands out sub-slices of t.Accesses, without a copy.
func (t *Trace) Pass(context.Context) (Pass, error) {
	return &slicePass{rest: t.Accesses}, nil
}

type slicePass struct{ rest []Access }

func (p *slicePass) Chunk() ([]Access, error) {
	if len(p.rest) == 0 {
		return nil, io.EOF
	}
	k := min(len(p.rest), ChunkLen)
	chunk := p.rest[:k:k]
	p.rest = p.rest[k:]
	return chunk, nil
}

func (p *slicePass) Close() error { return nil }

// File is a binary trace file read as a Source: each pass re-opens the
// file and decodes it with a Reader, so the trace is never held in
// memory. A pass fails with a wrapped xerr.ErrFormat if the file no
// longer has the header OpenFile read, or was truncated since, so
// validation never runs on another trace than profiling did.
type File struct {
	path    string
	retries int
	head    Header
}

// OpenFile reads the header of the binary trace file at path. With
// retries > 0 every pass reads through faultio.RetryReader, under
// faultio.DefaultPolicy with that retry budget.
func OpenFile(ctx context.Context, path string, retries int) (*File, error) {
	f := &File{path: path, retries: retries}
	rd, err := f.open(ctx)
	if err != nil {
		return nil, err
	}
	f.head = rd.Header()
	return f, rd.Close()
}

// Header returns the header OpenFile read.
func (f *File) Header() Header { return f.head }

// Pass re-opens the file; the Reader is the pass.
func (f *File) Pass(ctx context.Context) (Pass, error) {
	rd, err := f.open(ctx)
	if err != nil {
		return nil, err
	}
	if h := rd.Header(); h != f.head {
		rd.Close()
		return nil, fmt.Errorf("trace: %s changed between passes: header %+v, first read %+v: %w",
			f.path, h, f.head, xerr.ErrFormat)
	}
	return rd, nil
}

// open opens the file, under the retry budget, and parses its header.
func (f *File) open(ctx context.Context) (*Reader, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	var src io.Reader = fh
	if f.retries > 0 {
		policy := faultio.DefaultPolicy
		policy.MaxRetries = f.retries
		src, _ = faultio.NewRetryReader(ctx, fh, policy) // a positive budget always validates
	}
	rd, err := NewReader(src)
	if err != nil {
		fh.Close()
		return nil, err
	}
	rd.close = fh.Close
	return rd, nil
}
