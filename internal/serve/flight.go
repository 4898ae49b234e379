package serve

// A single-slot singleflight: concurrent callers of Do share one
// execution. The serving loop has one kind of work to deduplicate, the
// re-tune — a window boundary, an operator poke and a
// checkpoint-triggered retune arriving together must run the optimizer
// once, not three times — so there is one slot, not a keyed map.

import (
	"context"
	"sync"

	"xoridx/internal/xerr"
)

// flightCall is one in-flight execution.
type flightCall struct {
	done chan struct{}
	ep   *Epoch
	err  error
}

// flight deduplicates executions of one piece of work. The zero value
// is ready to use.
type flight struct {
	mu sync.Mutex
	c  *flightCall
}

// Do executes fn, unless an execution is already running, in which
// case the caller waits for that execution's result instead. A waiting
// caller whose ctx ends returns early with a wrapped xerr.ErrCanceled;
// the execution itself keeps running for the callers still waiting on
// it.
func (f *flight) Do(ctx context.Context, fn func() (*Epoch, error)) (*Epoch, error) {
	f.mu.Lock()
	if c := f.c; c != nil {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.ep, c.err
		case <-ctx.Done():
			return nil, xerr.Canceled(ctx)
		}
	}
	c := &flightCall{done: make(chan struct{})}
	f.c = c
	f.mu.Unlock()

	c.ep, c.err = fn()

	f.mu.Lock()
	f.c = nil
	f.mu.Unlock()
	close(c.done)
	return c.ep, c.err
}
