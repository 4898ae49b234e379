// Package cliutil holds the flag-parsing and I/O boilerplate shared by
// the commands (cmd/xoridx, cmd/tables, cmd/tracegen): fatal-error
// exits, family-name parsing, scale validation, trace loading with
// format sniffing and optional transient-failure retry, and the
// pipeline progress renderer. Each helper used to live as a private
// copy inside one or more commands; they are here so the commands
// stay thin and render errors and progress identically.
package cliutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"xoridx/internal/core"
	"xoridx/internal/faultio"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// Fatal prints "tool: err" on stderr and exits 1 (a runtime failure).
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Usagef prints "tool: message" on stderr and exits 2 (a usage error,
// following the flag package's convention).
func Usagef(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(2)
}

// ParseFamily maps the -family flag values to hash families.
func ParseFamily(s string) (hash.Family, error) {
	switch s {
	case "permutation":
		return hash.FamilyPermutation, nil
	case "general":
		return hash.FamilyGeneralXOR, nil
	case "bitselect":
		return hash.FamilyBitSelect, nil
	default:
		return 0, fmt.Errorf("unknown family %q (permutation, general, bitselect): %w",
			s, xerr.ErrInvalidOptions)
	}
}

// ValidateScale checks the -scale flag's domain.
func ValidateScale(scale int) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d: %w", scale, xerr.ErrInvalidOptions)
	}
	return nil
}

// ProgressSink renders pipeline events as single lines on w. Several
// experiments tune traces concurrently and the serve loop interleaves
// rounds, so lines from different traces or rounds may interleave;
// each line is still atomic, and rounds > 0 are tagged.
func ProgressSink(w io.Writer) core.Sink {
	return core.SinkFunc(func(e core.Event) {
		round := ""
		if e.Round > 0 {
			round = fmt.Sprintf(" round %d", e.Round)
		}
		switch e.Kind {
		case core.StageStarted:
			fmt.Fprintf(w, "[%s]%s started\n", e.Stage, round)
		case core.StageFinished:
			if e.Stage == core.StageSearch {
				fmt.Fprintf(w, "[%s]%s finished: %d moves, %d evaluated, best estimate %d\n",
					e.Stage, round, e.Iteration, e.Evaluated, e.Best)
				return
			}
			fmt.Fprintf(w, "[%s]%s finished\n", e.Stage, round)
		case core.SearchProgress:
			fmt.Fprintf(w, "[%s]%s restart %d move %d: %d evaluated, best estimate %d\n",
				e.Stage, round, e.Restart, e.Iteration, e.Evaluated, e.Best)
		}
	})
}

// ReadTrace loads any of the three trace formats into memory, sniffing
// the first bytes: the binary magic, a din label digit, or the text
// format. Transient I/O failures (errors wrapping xerr.ErrIO, e.g. from
// a flaky network filesystem surfaced by a fault-aware reader) are
// retried up to retries times with capped exponential backoff; decode
// errors and missing files fail at once.
func ReadTrace(ctx context.Context, path string, retries int) (*trace.Trace, error) {
	policy := faultio.DefaultPolicy
	policy.MaxRetries = max(retries, 0)
	var tr *trace.Trace
	err := policy.Do(ctx, func() error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch {
		case bytes.HasPrefix(data, []byte("XTR1")):
			tr, err = trace.Decode(bytes.NewReader(data))
		case len(data) > 0 && data[0] >= '0' && data[0] <= '9':
			tr, err = trace.DecodeDinero(bytes.NewReader(data))
		default:
			tr, err = trace.DecodeText(bytes.NewReader(data))
		}
		return err
	})
	return tr, err
}

// OpenTrace opens a trace file as a pipeline source: a binary trace as
// a trace.File, streamed from disk on every pass; a file without the
// binary magic (a format error at byte 0) as a din or text trace that
// ReadTrace decodes into memory.
func OpenTrace(ctx context.Context, path string, retries int) (trace.Source, error) {
	tf, err := trace.OpenFile(ctx, path, retries)
	if err == nil {
		return tf, nil
	}
	if fe := (*trace.FormatError)(nil); !errors.As(err, &fe) || fe.Offset != 0 {
		return nil, err
	}
	tr, err := ReadTrace(ctx, path, retries)
	if err != nil {
		return nil, err
	}
	return tr, nil
}
