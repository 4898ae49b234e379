// Package trace models memory-access traces: the input consumed by the
// profiling algorithm and the cache simulator.
//
// A trace is a sequence of Access records (address + kind) plus an
// operation count used to normalise miss rates to the paper's
// "misses per K-uop" metric. Traces can be held in memory, streamed to
// and from a compact binary format, or written as human-readable text.
package trace

import (
	"fmt"

	"xoridx/internal/gf2"
)

// Kind distinguishes the access types a cache sees.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
	// Fetch is an instruction fetch.
	Fetch
)

// String returns a one-letter mnemonic: R, W or F.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Fetch:
		return "F"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is a single memory reference by byte address.
type Access struct {
	Addr uint64
	Kind Kind
}

// Trace is an in-memory access trace. Ops is the number of executed
// operations (uops in the paper) the trace corresponds to; it is at
// least the number of accesses but is usually larger because most
// operations do not touch memory.
type Trace struct {
	Name     string
	Accesses []Access
	Ops      uint64
}

// Append records one access.
func (t *Trace) Append(addr uint64, kind Kind) {
	t.Accesses = append(t.Accesses, Access{Addr: addr, Kind: kind})
}

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// OpsOrLen returns Ops, defaulting to the access count when the
// generator did not record an operation count.
func (t *Trace) OpsOrLen() uint64 {
	if t.Ops > 0 {
		return t.Ops
	}
	return uint64(len(t.Accesses))
}

// Blocks returns the sequence of block addresses (for the given block
// size) truncated to n bits: the form the profiling algorithm consumes.
// Block addresses are truncated, not hashed, exactly as the paper's
// n-hashed-address-bits model prescribes (high bits beyond n only ever
// participate in the tag).
func (t *Trace) Blocks(blockBytes, n int) []uint64 {
	mask := uint64(gf2.Mask(n))
	shift := uint(log2(blockBytes))
	out := make([]uint64, len(t.Accesses))
	for i, a := range t.Accesses {
		out[i] = a.Addr >> shift & mask
	}
	return out
}

// Stats summarises a trace. Counters are int64, not int: the streaming
// paths (Reader and Writer) handle traces past 2^31 accesses, and
// per-run bookkeeping derived from them must not truncate on 32-bit
// builds (the >2^31 boundary test in reader_diff_test.go pins the
// header side of this).
type Stats struct {
	Accesses     int64
	Reads        int64
	Writes       int64
	Fetches      int64
	Ops          uint64
	UniqueBlocks int64   // distinct block addresses (4-byte blocks)
	Footprint    uint64  // bytes spanned by unique 4-byte blocks
	MinAddr      uint64  // lowest byte address
	MaxAddr      uint64  // highest byte address
	AccPerKOp    float64 // accesses per 1000 ops
}

// ComputeStats scans the trace once and summarises it.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Accesses: int64(len(t.Accesses)), Ops: t.OpsOrLen()}
	if len(t.Accesses) == 0 {
		return s
	}
	s.MinAddr = ^uint64(0)
	blocks := make(map[uint64]struct{})
	for _, a := range t.Accesses {
		switch a.Kind {
		case Read:
			s.Reads++
		case Write:
			s.Writes++
		case Fetch:
			s.Fetches++
		}
		if a.Addr < s.MinAddr {
			s.MinAddr = a.Addr
		}
		if a.Addr > s.MaxAddr {
			s.MaxAddr = a.Addr
		}
		blocks[a.Addr>>2] = struct{}{}
	}
	s.UniqueBlocks = int64(len(blocks))
	s.Footprint = uint64(len(blocks)) * 4
	s.AccPerKOp = float64(s.Accesses) * 1000 / float64(s.Ops)
	return s
}

// log2 returns log2 of a positive power of two, panicking otherwise.
func log2(v int) int {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("trace: %d is not a positive power of two", v))
	}
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Interleave merges traces in round-robin slices of quantum accesses,
// modelling time-shared execution with context switches: quantum
// accesses of trace 0, then of trace 1, ..., cycling until every trace
// is drained. Switches returns the access index of each context switch
// boundary (used by phase-aware reconfiguration experiments).
func Interleave(name string, quantum int, traces ...*Trace) (merged *Trace, switches []int) {
	if quantum <= 0 {
		panic("trace: Interleave quantum must be positive")
	}
	merged = &Trace{Name: name}
	pos := make([]int, len(traces))
	for _, t := range traces {
		merged.Ops += t.OpsOrLen()
	}
	last := -1
	for {
		progressed := false
		for i, t := range traces {
			if pos[i] >= len(t.Accesses) {
				continue
			}
			end := pos[i] + quantum
			if end > len(t.Accesses) {
				end = len(t.Accesses)
			}
			// A context switch happens only when a different trace
			// resumes (a drained peer does not cause a switch).
			if last >= 0 && last != i {
				switches = append(switches, len(merged.Accesses))
			}
			last = i
			merged.Accesses = append(merged.Accesses, t.Accesses[pos[i]:end]...)
			pos[i] = end
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return merged, switches
}

// Rebase returns a copy of the trace with every address shifted by
// delta bytes (wrap-around on overflow), modelling a different load
// address / ASLR placement of the same program.
func (t *Trace) Rebase(delta uint64) *Trace {
	out := &Trace{Name: t.Name, Ops: t.Ops, Accesses: make([]Access, len(t.Accesses))}
	for i, a := range t.Accesses {
		out.Accesses[i] = Access{Addr: a.Addr + delta, Kind: a.Kind}
	}
	return out
}
