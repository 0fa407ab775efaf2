package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// randomGraph builds a reproducible random labeled graph exercising
// fractional weights, unlabeled-looking numeric labels and both
// directions.
func randomGraph(t *testing.T, seed int64, n, m int, directed bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(directed)
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("node-%d", i)
	}
	for added := 0; added < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddEdgeLabels(labels[u], labels[v], rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
		added++
	}
	return b.Build()
}

// canonical renders a graph's edge list as sorted label triples: node
// IDs are assigned by first appearance, so a re-read graph may order
// its canonical slice differently while carrying the same edges.
func canonical(g *Graph) []string {
	out := make([]string, 0, g.NumEdges())
	for _, e := range g.Edges() {
		src, dst := g.label(e.Src), g.label(e.Dst)
		if !g.Directed() && src > dst {
			src, dst = dst, src // undirected canonical order is by ID, which relabeling permutes
		}
		out = append(out, fmt.Sprintf("%s|%s|%x", src, dst, e.Weight))
	}
	sort.Strings(out)
	return out
}

// TestFormatRoundTrip: for every registered writable format, write →
// read yields the identical canonical edge slice — labels preserved,
// weights bit-exact (%x comparison) — with and without gzip.
func TestFormatRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomGraph(t, 42, 50, 300, directed)
		want := canonical(g)
		for _, f := range Formats() {
			if f.Write == nil || f.Read == nil {
				continue
			}
			for _, gz := range []bool{false, true} {
				name := fmt.Sprintf("%s/directed=%v/gzip=%v", f.Name, directed, gz)
				t.Run(name, func(t *testing.T) {
					var buf bytes.Buffer
					if err := WriteGraph(&buf, g, WriteOptions{Format: f.Name, Gzip: gz}); err != nil {
						t.Fatal(err)
					}
					// Explicit format name.
					g2, err := ReadGraph(bytes.NewReader(buf.Bytes()), ReadOptions{Format: f.Name, Directed: directed})
					if err != nil {
						t.Fatalf("read %s: %v", f.Name, err)
					}
					if got := canonical(g2); !equalStrings(got, want) {
						t.Fatalf("round trip changed edges:\ngot  %v\nwant %v", got[:min(3, len(got))], want[:min(3, len(want))])
					}
					// Sniffed format (gzip is always sniffed by magic).
					g3, err := ReadGraph(bytes.NewReader(buf.Bytes()), ReadOptions{Directed: directed})
					if err != nil {
						t.Fatalf("sniffed read of %s output: %v", f.Name, err)
					}
					if got := canonical(g3); !equalStrings(got, want) {
						t.Fatalf("sniffed round trip changed edges for %s", f.Name)
					}
				})
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLookupFormat(t *testing.T) {
	cases := map[string]string{
		"csv": "csv", "CSV": "csv", ".csv": "csv", "edges.csv": "csv",
		"edges.csv.gz": "csv", "data/path/edges.tsv": "tsv",
		"jsonl": "ndjson", "x.ndjson": "ndjson", "tab": "tsv", "txt": "csv",
	}
	for in, want := range cases {
		f, err := LookupFormat(in)
		if err != nil {
			t.Errorf("LookupFormat(%q): %v", in, err)
			continue
		}
		if f.Name != want {
			t.Errorf("LookupFormat(%q) = %s, want %s", in, f.Name, want)
		}
	}
	if _, err := LookupFormat("parquet"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("LookupFormat(parquet) = %v, want ErrUnknownFormat", err)
	}
}

// TestReadGraphCRLF: Windows line endings parse identically to Unix.
func TestReadGraphCRLF(t *testing.T) {
	unix := "src,dst,weight\na,b,1.5\nb,c,2\n"
	dos := strings.ReplaceAll(unix, "\n", "\r\n")
	gu, err := ReadGraph(strings.NewReader(unix), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := ReadGraph(strings.NewReader(dos), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(canonical(gu), canonical(gd)) {
		t.Errorf("CRLF parse differs from LF parse")
	}
}

// TestReadGraphLineTooLong: an overlong line fails with the typed
// sentinel and the offending line number, not a generic read error.
func TestReadGraphLineTooLong(t *testing.T) {
	long := "a,b,1\n" + strings.Repeat("x", maxLineBytes+1) + ",y,2\n"
	_, err := ReadGraph(strings.NewReader(long), ReadOptions{})
	if !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("got %v, want ErrLineTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the offending line", err)
	}
}

// TestReadGraphTabHeader: a tab-separated header row is skipped even
// when its labels contain commas, and TSV data lines keep comma-bearing
// labels intact.
func TestReadGraphTabHeader(t *testing.T) {
	in := "source, the\ttarget, the\tweight\nDoe, Jane\tRoe, Rich\t3\nRoe, Rich\tPoe, Edgar\t4\n"
	g, err := ReadGraph(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("got %d edges, want 2", g.NumEdges())
	}
	if g.NodeID("Doe, Jane") < 0 {
		t.Errorf("comma-bearing TSV label was split: nodes %v", g.Labels())
	}
}

// TestWriteSeparatorInLabel: a label containing the output separator
// is an explicit error (silent corruption would break the round-trip
// guarantee), while ndjson handles it fine.
func TestWriteSeparatorInLabel(t *testing.T) {
	b := NewBuilder(false)
	if err := b.AddEdgeLabels("Doe, Jane", "Roe, Rich", 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	for _, gz := range []bool{false, true} {
		var out bytes.Buffer
		err := WriteGraph(&out, g, WriteOptions{Format: "csv", Gzip: gz})
		if !errors.Is(err, ErrUnwritableLabel) {
			t.Errorf("csv write (gzip %v) of comma-bearing label: %v; want ErrUnwritableLabel", gz, err)
		}
		if out.Len() != 0 {
			t.Errorf("rejected csv write (gzip %v) wrote %d bytes", gz, out.Len())
		}
	}
	if err := WriteGraph(io.Discard, g, WriteOptions{Format: "tsv"}); err != nil {
		t.Errorf("tsv write of comma-bearing label: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, WriteOptions{Format: "ndjson"}); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(canonical(g2), canonical(g)) {
		t.Error("ndjson round trip of comma-bearing labels changed edges")
	}
}

// TestNDJSONNumericNodes: numeric src/dst keep their literal spelling.
func TestNDJSONNumericNodes(t *testing.T) {
	in := `{"src": 1, "dst": 2, "weight": 3.5}` + "\n" + `{"src": "a", "dst": 2, "weight": 1}` + "\n"
	g, err := ReadGraph(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.NodeID("1") < 0 || g.NodeID("a") < 0 {
		t.Fatalf("unexpected parse: %v labels %v", g, g.Labels())
	}
	if _, err := ReadGraph(strings.NewReader(`{"src":"a","dst":"b"}`+"\n"), ReadOptions{Format: "ndjson"}); err == nil {
		t.Error("missing weight accepted")
	}
}
