// Command tracegen generates workload traces to files in the binary or
// text trace format, for use with the xoridx CLI or external tools.
//
// Usage:
//
//	tracegen -list
//	tracegen -bench fft -out fft.xtr
//	tracegen -bench rijndael -kind instr -format text -out rijndael_i.txt
//	tracegen -bench susan -scale 2 -out susan2.xtr
//	tracegen -bench fft -stream -accesses 1000000000 -out fft_1g.xtr
//
// -stream writes traces of any length in bounded memory: the workload
// model generates one base trace, and the streaming encoder cycles
// over it until the requested access count is written — optionally
// rebasing the addresses each cycle (-rebase) to model repeated runs
// at different placements. Only the base trace is ever held in memory,
// so a multi-billion-access (multi-GB) trace costs the same RAM as a
// scale-1 trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xoridx/internal/cliutil"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list available benchmarks")
	bench := flag.String("bench", "", "benchmark name")
	kind := flag.String("kind", "data", "trace kind: data or instr")
	scale := flag.Int("scale", 1, "workload scale factor (>= 1)")
	format := flag.String("format", "binary", "output format: binary, text or dinero")
	out := flag.String("out", "", "output file (default stdout)")
	stream := flag.Bool("stream", false, "stream mode: cycle the base trace up to -accesses in bounded memory (binary format only)")
	accesses := flag.Uint64("accesses", 0, "total accesses to write in -stream mode")
	rebase := flag.Uint64("rebase", 0, "address shift in bytes applied per full cycle in -stream mode")
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			kinds := "data"
			if w.Instr != nil {
				kinds = "data+instr"
			}
			fmt.Printf("%-10s %-11s %-10s %s\n", w.Name, w.Suite, kinds, w.Desc)
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -bench required (or -list); available:", strings.Join(workloads.Names(), " "))
		os.Exit(2)
	}
	if err := cliutil.ValidateScale(*scale); err != nil {
		fatal(err)
	}
	w, err := workloads.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	var tr *trace.Trace
	switch *kind {
	case "data":
		tr = w.Data(*scale)
	case "instr":
		if w.Instr == nil {
			fatal(fmt.Errorf("benchmark %q has no instruction-trace model", *bench))
		}
		tr = w.Instr(*scale)
	default:
		fatal(errors.New("-kind must be data or instr"))
	}

	dst := os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		outFile = f
		dst = f
	}
	if *stream {
		if *format != "binary" {
			fatal(errors.New("-stream writes the binary format only"))
		}
		if *accesses == 0 {
			fatal(errors.New("-stream needs -accesses > 0"))
		}
		err = streamTrace(dst, tr, *accesses, *rebase)
	} else {
		switch *format {
		case "binary":
			err = trace.Encode(dst, tr)
		case "text":
			err = trace.EncodeText(dst, tr)
		case "dinero":
			err = trace.EncodeDinero(dst, tr)
		default:
			fatal(errors.New("-format must be binary, text or dinero"))
		}
	}
	if err != nil {
		fatal(err)
	}
	// An explicit, checked close: encode errors and close errors (the
	// kernel flushing the file) both matter for a generator.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fatal(err)
		}
	}
	if *stream {
		fmt.Fprintf(os.Stderr, "tracegen: %s/%s: %d accesses streamed (%d-access base, rebase %d/cycle)\n",
			*bench, *kind, *accesses, tr.Len(), *rebase)
		return
	}
	s := tr.ComputeStats()
	fmt.Fprintf(os.Stderr, "tracegen: %s/%s: %d accesses, %d ops, %d unique blocks\n",
		*bench, *kind, s.Accesses, s.Ops, s.UniqueBlocks)
}

// streamTrace writes total accesses by cycling over the base trace,
// shifting addresses by delta bytes after each full cycle. Memory
// stays bounded by the base trace; the encoder never buffers more
// than its 64 KiB write window. The declared op count is scaled
// proportionally so misses-per-K-uop normalisation survives the
// stretch.
func streamTrace(w io.Writer, tr *trace.Trace, total, delta uint64) error {
	if tr.Len() == 0 {
		return errors.New("base trace is empty")
	}
	ops := uint64(float64(tr.OpsOrLen()) * float64(total) / float64(tr.Len()))
	sw, err := trace.NewWriter(w, tr.Name+"-stream", ops, total)
	if err != nil {
		return err
	}
	var base uint64
	i := 0
	for n := uint64(0); n < total; n++ {
		a := tr.Accesses[i]
		if err := sw.WriteAccess(trace.Access{Addr: a.Addr + base, Kind: a.Kind}); err != nil {
			return err
		}
		if i++; i == tr.Len() {
			i = 0
			base += delta
		}
	}
	return sw.Close()
}

func fatal(err error) {
	cliutil.Usagef("tracegen", "%v", err)
}
