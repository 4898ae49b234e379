package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"xoridx/internal/xerr"
)

// Binary format:
//
//	magic "XTR1" (4 bytes)
//	name length (uvarint) + name bytes
//	ops (uvarint)
//	access count (uvarint)
//	per access: kind (1 byte), address delta (signed varint from the
//	previous address of the same kind)
//
// Delta coding against the previous same-kind address keeps sequential
// instruction fetches and strided data streams to ~2 bytes per access.

const magic = "XTR1"

// Encode serialises the trace in the binary format: a Writer
// declaring len(t.Accesses) records, fed every access.
func Encode(w io.Writer, t *Trace) error {
	tw, err := NewWriter(w, t.Name, t.Ops, uint64(len(t.Accesses)))
	if err != nil {
		return err
	}
	for _, a := range t.Accesses {
		if err := tw.WriteAccess(a); err != nil {
			return err
		}
	}
	return tw.Close()
}

// Decode deserialises a trace written by Encode. It is the in-memory
// convenience form of the streaming Reader (see stream.go), which large
// traces should prefer.
func Decode(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return rd.ReadAll()
}

// EncodeText writes one "<kind> <hex addr>" line per access, preceded by
// header lines "# name <name>" and "# ops <n>". Intended for inspection
// and for interoperability with external tools.
func EncodeText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name %s\n# ops %d\n", t.Name, t.OpsOrLen()); err != nil {
		return err
	}
	for _, a := range t.Accesses {
		if _, err := fmt.Fprintf(bw, "%s %x\n", a.Kind, a.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeText parses the text format produced by EncodeText. Unknown "#"
// comment lines are ignored.
func DecodeText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "name" {
				t.Name = fields[2]
			}
			if len(fields) >= 3 && fields[1] == "ops" {
				if _, err := fmt.Sscanf(fields[2], "%d", &t.Ops); err != nil {
					return nil, fmt.Errorf("trace: line %d: bad ops: %w: %w", lineNo, xerr.ErrFormat, err)
				}
			}
			continue
		}
		var kindStr string
		var addr uint64
		if _, err := fmt.Sscanf(line, "%s %x", &kindStr, &addr); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w: %w", lineNo, xerr.ErrFormat, err)
		}
		var kind Kind
		switch kindStr {
		case "R":
			kind = Read
		case "W":
			kind = Write
		case "F":
			kind = Fetch
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q: %w", lineNo, kindStr, xerr.ErrFormat)
		}
		t.Accesses = append(t.Accesses, Access{Addr: addr, Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Dinero III/IV "din" format interoperability: one access per line,
// "<label> <hex address>", where label 0 = read, 1 = write, 2 =
// instruction fetch. The de-facto interchange format of the academic
// cache-simulation tooling the paper's era used.

// EncodeDinero writes the trace in din format.
func EncodeDinero(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, a := range t.Accesses {
		var label byte
		switch a.Kind {
		case Read:
			label = '0'
		case Write:
			label = '1'
		case Fetch:
			label = '2'
		default:
			return fmt.Errorf("trace: cannot encode kind %d as din: %w", a.Kind, xerr.ErrFormat)
		}
		if _, err := fmt.Fprintf(bw, "%c %x\n", label, a.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeDinero parses din format. Labels 0/1/2 map to Read/Write/Fetch;
// other labels (Dinero's 3 = escape, 4 = flush) are rejected. Ops is
// set to the access count (din carries no instruction counts).
func DecodeDinero(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	t := &Trace{Name: "din"}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var label int
		var addr uint64
		if _, err := fmt.Sscanf(line, "%d %x", &label, &addr); err != nil {
			return nil, fmt.Errorf("trace: din line %d: %w: %w", lineNo, xerr.ErrFormat, err)
		}
		var kind Kind
		switch label {
		case 0:
			kind = Read
		case 1:
			kind = Write
		case 2:
			kind = Fetch
		default:
			return nil, fmt.Errorf("trace: din line %d: unsupported label %d: %w", lineNo, label, xerr.ErrFormat)
		}
		t.Accesses = append(t.Accesses, Access{Addr: addr, Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.Ops = uint64(len(t.Accesses))
	return t, nil
}
