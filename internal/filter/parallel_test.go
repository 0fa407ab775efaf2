package filter

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestParallelEdgesCoverage: every index in [0, m) is visited exactly
// once, for worker counts below, at and above m. Run under -race (the
// CI default) this also exercises the fan-out for data races.
func TestParallelEdgesCoverage(t *testing.T) {
	for _, m := range []int{0, 1, 2, 7, 100, 4097} {
		for _, workers := range []int{0, 1, 2, 3, 16, 1000} {
			hits := make([]int32, m)
			ParallelEdges(m, workers, func(lo, hi int) {
				if lo < 0 || hi > m || lo >= hi {
					t.Errorf("m=%d workers=%d: bad range [%d,%d)", m, workers, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("m=%d workers=%d: index %d visited %d times", m, workers, i, h)
				}
			}
		}
	}
}

// fakeRangeScorer writes a deterministic function of the edge ID so
// chunked and serial execution are trivially comparable.
type fakeRangeScorer struct{}

func (fakeRangeScorer) Name() string { return "fake" }

func (fakeRangeScorer) NewTable(g *graph.Graph) (*Scores, error) {
	m := g.NumEdges()
	return &Scores{
		G:      g,
		Score:  make([]float64, m),
		Method: "fake",
		Aux:    map[string][]float64{"aux": make([]float64, m)},
	}, nil
}

func (fakeRangeScorer) ScoreEdges(s *Scores, lo, hi int) {
	edges := s.G.Edges()
	aux := s.Aux["aux"]
	for id := lo; id < hi; id++ {
		s.Score[id] = float64(id) * edges[id].Weight
		aux[id] = -s.Score[id]
	}
}

func (f fakeRangeScorer) Scores(g *graph.Graph) (*Scores, error) { return Serial(f, g) }

// TestScoreCtxMatchesSerial: Method.ScoreCtx splits a range scorer's
// rows across workers once the graph exceeds one checkpoint range, and
// the table equals the serial one row for row under the scorer's own
// name, for graphs below, at and above the cutoff.
func TestScoreCtxMatchesSerial(t *testing.T) {
	old := Checkpoint
	Checkpoint = 64
	t.Cleanup(func() { Checkpoint = old })
	m := &Method{Name: "fake", Scorer: fakeRangeScorer{}, Cut: func(Params) float64 { return 0 }}
	rng := rand.New(rand.NewSource(5))
	for _, edges := range []int{10, 64, 65, 5000} {
		b := graph.NewBuilder(true)
		b.AddNodes(edges + 1)
		for i := 0; i < edges; i++ {
			b.MustAddEdge(i, i+1, rng.Float64())
		}
		g := b.Build()
		serial, err := Serial(fakeRangeScorer{}, g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ScoreCtx(context.Background(), g, ScoreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Method != "fake" {
			t.Errorf("%d edges: method = %q", edges, got.Method)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := range serial.Score {
			if got.Score[i] != serial.Score[i] || got.Aux["aux"][i] != serial.Aux["aux"][i] {
				t.Fatalf("%d edges: row %d differs", edges, i)
			}
		}
	}
}

// TestTopKMatchesFullSort pins the quickselect pruning path to a full
// stable sort of the ranking order, including ThresholdForK, across
// random score tables heavy with ties.
func TestTopKMatchesFullSort(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(trial%2 == 0)
		b.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				// Coarse weights force ties on both score and weight.
				b.MustAddEdge(u, v, float64(1+rng.Intn(3)))
			}
		}
		g := b.Build()
		m := g.NumEdges()
		s := &Scores{G: g, Score: make([]float64, m), Method: "test"}
		for i := range s.Score {
			s.Score[i] = float64(rng.Intn(4)) // heavy score ties
		}

		// Reference ranking: the seed's full stable sort.
		ids := make([]int, m)
		for i := range ids {
			ids[i] = i
		}
		edges := g.Edges()
		sortStableByRank(ids, s.Score, edges)

		for _, k := range []int{0, 1, m / 3, m - 1, m, m + 5} {
			bb := s.TopK(k)
			want := k
			if want < 0 {
				want = 0
			}
			if want > m {
				want = m
			}
			if bb.NumEdges() != want {
				t.Fatalf("trial %d: TopK(%d) kept %d edges", trial, k, bb.NumEdges())
			}
			wantKeep := make(map[graph.EdgeKey]bool, want)
			for _, id := range ids[:want] {
				wantKeep[g.Key(edges[id])] = true
			}
			for _, e := range bb.Edges() {
				if !wantKeep[g.Key(e)] {
					t.Fatalf("trial %d: TopK(%d) kept unranked edge %+v", trial, k, e)
				}
			}
			if k >= 1 && k <= m {
				if got, want := s.ThresholdForK(k), s.Score[ids[k-1]]; got != want {
					t.Fatalf("trial %d: ThresholdForK(%d) = %v, want %v", trial, k, got, want)
				}
			}
		}
	}
}

// sortStableByRank is the seed implementation of the ranking order:
// score desc, weight desc, id asc.
func sortStableByRank(ids []int, score []float64, edges []graph.Edge) {
	for i := 1; i < len(ids); i++ { // insertion sort: simple, stable
		for j := i; j > 0; j-- {
			a, b := ids[j], ids[j-1]
			better := false
			if score[a] != score[b] {
				better = score[a] > score[b]
			} else if edges[a].Weight != edges[b].Weight {
				better = edges[a].Weight > edges[b].Weight
			} else {
				better = a < b
			}
			if !better {
				break
			}
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
