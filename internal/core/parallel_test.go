package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/gen"
)

// TestParallelMatchesSerial: the NC kernel chunked by ParallelEdges is
// bit-identical to the serial scorer for any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyiGNM(rng, 3000, 9000) // three checkpoint ranges
	serial, err := New().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 7} {
		nc := New()
		par, err := nc.NewTable(g)
		if err != nil {
			t.Fatal(err)
		}
		filter.ParallelEdges(len(par.Score), workers, func(lo, hi int) { nc.ScoreEdges(par, lo, hi) })
		if par.Method != "nc" {
			t.Errorf("method = %q", par.Method)
		}
		for i := range serial.Score {
			if serial.Score[i] != par.Score[i] {
				t.Fatalf("workers=%d: score[%d] = %v, serial %v (must be bit-identical)",
					workers, i, par.Score[i], serial.Score[i])
			}
		}
		for col := range serial.Aux {
			for i := range serial.Aux[col] {
				if serial.Aux[col][i] != par.Aux[col][i] {
					t.Fatalf("workers=%d: aux %q differs at %d", workers, col, i)
				}
			}
		}
	}
}

// TestParallelSmallGraphFallback: a graph within one checkpoint range
// scores on one worker through the registry and keeps the method name.
func TestParallelSmallGraphFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyiGNM(rng, 50, 100)
	m, err := filter.Lookup("nc")
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.ScoreCtx(context.Background(), g, filter.ScoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Method != "nc" {
		t.Errorf("small graph lost method name: %q", s.Method)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func BenchmarkSerialNC100k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyiGNM(rng, 70_000, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New().Scores(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelNC100k times the registry path, Method.ScoreCtx,
// which splits the rows across every CPU.
func BenchmarkParallelNC100k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyiGNM(rng, 70_000, 100_000)
	m, err := filter.Lookup("nc")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ScoreCtx(ctx, g, filter.ScoreOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
