package repro

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/gen"
)

// TestRangeScorersBitIdentical pins the contract that lets every range
// scorer split its rows across CPUs: for each registered method whose
// Scorer is a filter.RangeScorer, Method.ScoreCtx yields a table
// bit-identical, Score and every Aux column, to the scorer's own kernel
// run over NewTable + filter.ParallelEdges with 1 worker and with 7, on
// a graph large enough to engage several workers. The table keeps the
// method's own name whatever the split.
func TestRangeScorersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := gen.ErdosRenyiGNM(rng, 4000, 12_000) // three checkpoint ranges

	var ranged []string
	for _, m := range filter.All() {
		rs, ok := m.Scorer.(filter.RangeScorer)
		if !ok {
			continue
		}
		ranged = append(ranged, m.Name)
		got, err := m.ScoreCtx(context.Background(), g, filter.ScoreOpts{})
		if err != nil {
			t.Fatalf("%s: ScoreCtx: %v", m.Name, err)
		}
		if got.Method != m.Scorer.Name() {
			t.Errorf("%s: table method = %q, want %q", m.Name, got.Method, m.Scorer.Name())
		}
		for _, workers := range []int{1, 7} {
			want, err := rs.NewTable(g)
			if err != nil {
				t.Fatalf("%s: NewTable: %v", m.Name, err)
			}
			filter.ParallelEdges(len(want.Score), workers, func(lo, hi int) { rs.ScoreEdges(want, lo, hi) })
			requireTablesBitIdentical(t, fmt.Sprintf("%s, %d workers,", m.Name, workers), 0, got, want)
		}
	}
	slices.Sort(ranged)
	if want := []string{"df", "nc", "nc-binomial", "nt"}; !slices.Equal(ranged, want) {
		t.Errorf("range-scorer methods = %v, want %v", ranged, want)
	}
}
