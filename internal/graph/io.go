package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// maxLineBytes caps a single input line. Edge-list lines are three
// short fields; anything near this limit is a malformed or binary file.
const maxLineBytes = 1 << 20

// ErrLineTooLong marks an input line exceeding the per-line cap. It
// used to surface as bufio.Scanner's generic "token too long"; now it
// carries the offending line number.
var ErrLineTooLong = errors.New("line too long")

// ErrUnwritableLabel marks a node label that a delimited output format
// cannot hold: it contains the field separator or a newline.
var ErrUnwritableLabel = errors.New("unwritable label")

// readEdgeListSerial parses delimited "src dst weight" lines into a
// Graph, one line at a time. Fields are tab-separated when the line
// contains a tab, else comma-separated when it contains a comma, else
// whitespace-separated — preferring tabs keeps labels containing commas
// intact in TSV files. Blank lines and '#' comments are skipped; CRLF
// line endings are handled; a header row is detected on line 1 by a
// digit-free weight field (a line-1 weight that fails to parse but
// does contain digits is a malformed data row, not a header).
//
// This is the reference implementation: the registered reader is the
// chunked codec in codec.go, whose output is pinned bit-identical to
// this one by the oracle tests.
func readEdgeListSerial(r io.Reader, directed bool) (*Graph, error) {
	b := NewBuilder(directed)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("graph: line %d: want 3 fields (src,dst,weight), got %d", lineNo, len(fields))
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			if lineNo == 1 && !hasDigit(fields[2]) {
				continue // header row: the weight field has no digits at all
			}
			return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
		}
		if err := b.AddEdgeLabels(fields[0], fields[1], w); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("graph: line %d: %w (limit %d bytes)", lineNo+1, ErrLineTooLong, maxLineBytes)
		}
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	return b.Build(), nil
}

// ReadCSV parses an edge list of the form "src,dst,weight" (one edge per
// line; '#'-prefixed lines and a "src,dst,..." header are skipped) into a
// Graph. Fields may also be tab- or space-separated. Node labels are
// arbitrary strings; IDs are assigned in order of first appearance.
//
// New code should prefer ReadGraph, which adds format selection,
// content sniffing and transparent gzip decompression.
func ReadCSV(r io.Reader, directed bool) (*Graph, error) {
	return readEdgeList(r, directed)
}

func splitFields(line string) []string {
	// Tabs are the most deliberate separator: a TSV header or label may
	// legitimately contain commas, so check for tabs first.
	var parts []string
	switch {
	case strings.ContainsRune(line, '\t'):
		parts = strings.Split(line, "\t")
	case strings.ContainsRune(line, ','):
		parts = strings.Split(line, ",")
	default:
		return strings.Fields(line)
	}
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// label returns the display label of a node: its string label when one
// was assigned, else its numeric ID.
func (g *Graph) label(id int32) string {
	if l := g.labels[id]; l != "" {
		return l
	}
	return strconv.Itoa(int(id))
}

// LabelOrID is the node's display label for serialization: its string
// label when one was assigned, else its numeric ID.
func (g *Graph) LabelOrID(u int) string { return g.label(int32(u)) }

// writeEdgeList writes the canonical edge list with the given field
// separator, preceded by a header row. Weights use strconv's shortest
// exact representation, so written graphs read back bit-identically.
// A label containing the separator (or a newline) would corrupt the
// output and break that guarantee, so CheckLabels rejects it before
// the first byte is written — use ndjson (or a different separator)
// for such labels.
//
// Each line is byte-built into one reusable buffer (strconv.Append*
// instead of Fprintln/FormatFloat), so writing allocates O(1) rather
// than O(edges).
func (g *Graph) writeEdgeList(w io.Writer, sep byte) error {
	if err := g.CheckLabels(sep); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString("src")
	bw.WriteByte(sep)
	bw.WriteString("dst")
	bw.WriteByte(sep)
	bw.WriteString("weight\n")
	buf := make([]byte, 0, 64)
	for _, e := range g.edges {
		buf = g.appendLabel(buf[:0], e.Src)
		buf = append(buf, sep)
		buf = g.appendLabel(buf, e.Dst)
		buf = append(buf, sep)
		buf = strconv.AppendFloat(buf, e.Weight, 'g', -1, 64)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CheckLabels reports the first node with an incident edge whose label
// would corrupt a sep-delimited edge line, one containing sep, '\n' or
// '\r', as an ErrUnwritableLabel; nil means every label an edge list
// writes is safe. It looks at each node once, not at each endpoint.
func (g *Graph) CheckLabels(sep byte) error {
	unsafeChars := string([]byte{sep, '\n', '\r'})
	for u, l := range g.labels {
		if (g.OutDegree(u) > 0 || g.InDegree(u) > 0) && strings.ContainsAny(l, unsafeChars) {
			return fmt.Errorf("graph: %w: %q contains the field separator %q; write this graph as ndjson instead", ErrUnwritableLabel, l, sep)
		}
	}
	return nil
}

// appendLabel appends node id's display label (label or numeric ID).
func (g *Graph) appendLabel(buf []byte, id int32) []byte {
	if l := g.labels[id]; l != "" {
		return append(buf, l...)
	}
	return strconv.AppendInt(buf, int64(id), 10)
}

// WriteCSV writes the canonical edge list as "src,dst,weight" lines with
// a header. Nodes without labels are written as their numeric ID.
func (g *Graph) WriteCSV(w io.Writer) error { return g.writeEdgeList(w, ',') }

// ndjsonEdge is the wire form of one edge in the ndjson format.
type ndjsonEdge struct {
	Src    any      `json:"src"`
	Dst    any      `json:"dst"`
	Weight *float64 `json:"weight"`
}

// JSONLabel renders a decoded src/dst value as a node label. Strings
// pass through; numbers keep their literal spelling (json.Number).
// Shared by the ndjson reader and the daemon's JSON envelope.
func JSONLabel(v any) (string, error) {
	switch t := v.(type) {
	case string:
		return t, nil
	case json.Number:
		return t.String(), nil
	case nil:
		return "", fmt.Errorf("missing node field")
	default:
		return "", fmt.Errorf("node field must be a string or number, got %T", v)
	}
}

// readNDJSON parses newline-delimited JSON objects of the form
// {"src": ..., "dst": ..., "weight": n}. src and dst may be strings or
// numbers; blank lines are skipped.
func readNDJSON(r io.Reader, directed bool) (*Graph, error) {
	b := NewBuilder(directed)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var e ndjsonEdge
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad ndjson edge: %v", lineNo, err)
		}
		src, err := JSONLabel(e.Src)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: src: %v", lineNo, err)
		}
		dst, err := JSONLabel(e.Dst)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: dst: %v", lineNo, err)
		}
		if e.Weight == nil {
			return nil, fmt.Errorf("graph: line %d: missing weight", lineNo)
		}
		if err := b.AddEdgeLabels(src, dst, *e.Weight); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("graph: line %d: %w (limit %d bytes)", lineNo+1, ErrLineTooLong, maxLineBytes)
		}
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	return b.Build(), nil
}

// writeNDJSON writes one {"src","dst","weight"} JSON object per edge.
// Records are byte-built into a reusable buffer; labels that need
// escaping (or any non-ASCII content) fall back to encoding/json for
// exact escaping semantics.
func (g *Graph) writeNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	buf := make([]byte, 0, 96)
	for _, e := range g.edges {
		buf = buf[:0]
		var err error
		buf = append(buf, `{"src":`...)
		if buf, err = appendJSONLabel(buf, g.label(e.Src)); err != nil {
			return err
		}
		buf = append(buf, `,"dst":`...)
		if buf, err = appendJSONLabel(buf, g.label(e.Dst)); err != nil {
			return err
		}
		buf = append(buf, `,"weight":`...)
		if buf, err = appendJSONFloat(buf, e.Weight); err != nil {
			return err
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendJSONLabel appends s as a JSON string. Plain printable ASCII
// (no quotes, backslashes or control characters) is appended verbatim;
// anything else goes through encoding/json. Output bytes therefore
// differ from the old json.Encoder writer for labels containing '<',
// '>' or '&' (no HTML escaping on the fast path) — equally valid JSON
// that decodes to the same string, which is the guarantee the
// round-trip tests pin.
func appendJSONLabel(buf []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			enc, err := json.Marshal(s)
			if err != nil {
				return nil, err
			}
			return append(buf, enc...), nil
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), nil
}

// appendJSONFloat appends f as a JSON number in strconv's shortest
// 'g' form (encoding/json uses a slightly different float spelling;
// both parse back to the identical bits), rejecting the values JSON
// cannot represent — the same ones encoding/json rejects.
func appendJSONFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("graph: json: unsupported value: %v", f)
	}
	return strconv.AppendFloat(buf, f, 'g', -1, 64), nil
}
