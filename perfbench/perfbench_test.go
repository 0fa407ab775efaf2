package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{20, 0.5, 10, true},  // ten samples beyond the 10th
		{19, 0.5, 10, false}, // nine beyond
		{21, 0.5, 11, true},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{2000, 0.99, 1980, true},
		{1100, 0.99, 1089, true},
		{11, 0.01, 1, true},
		{10, 0.01, 1, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("percentile(1..%d, %v) = %v has %d samples beyond it", c.n, c.q, got, beyond)
			}
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if _, err := median("x", seq(19)); err == nil {
		t.Error("median of 19 samples: want an error under the rule")
	}
	if got := p99OrMax(seq(999)); got != 999 {
		t.Errorf("p99OrMax(1..999) = %v, want the maximum 999", got)
	}
	if got := p99OrMax(seq(1000)); got != 990 {
		t.Errorf("p99OrMax(1..1000) = %v, want 990", got)
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(40, 60)}, 70},
		{"overlapping", []interval{iv(10, 30), iv(20, 50), iv(60, 70)}, 50},
		{"nested", []interval{iv(10, 90), iv(20, 30), iv(40, 50)}, 20},
		{"identical", []interval{iv(10, 40), iv(10, 40)}, 70},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80},
		{"unsorted chain", []interval{iv(50, 80), iv(10, 30), iv(25, 55)}, 30},
		{"spilling past the parent", []interval{iv(90, 130), iv(-20, 10)}, 80},
		{"outside the parent", []interval{iv(100, 130), iv(-30, -10)}, 100},
		{"covering all", []interval{iv(0, 60), iv(50, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(iv(0, 100), c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSaturate keeps two connections busy with ops that each take
// 10ms: the throughput must be near two ops per 10ms, and ops never
// started within the phase must be neither sent nor counted.
func TestSaturate(t *testing.T) {
	g := newLoadGen(2)
	var ran atomic.Int64
	mk := func(phase int, rate float64, n int) []*arrival {
		as := make([]*arrival, n)
		for i := range as {
			as[i] = &arrival{Stream: -1, Run: func(context.Context, *arrival) error {
				ran.Add(1)
				time.Sleep(10 * time.Millisecond)
				return nil
			}}
		}
		return as
	}
	rate, sent, err := g.saturate(context.Background(), mk, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(sent)) != ran.Load() {
		t.Errorf("%d ops returned as sent, %d ran", len(sent), ran.Load())
	}
	// Sleep overshoots, so the rate can only fall below 200/s.
	if rate > 200 || rate < 120 {
		t.Errorf("throughput %.1f ops/s, want just under 200", rate)
	}
	if got := throughput(30, 1500*time.Millisecond); got != 20 {
		t.Errorf("throughput(30, 1.5s) = %v, want 20", got)
	}
	if got := throughput(5, 0); got != 0 {
		t.Errorf("throughput over no time = %v, want 0", got)
	}
}

// TestDueTimeAccounting runs a stalled open loop: one connection, ops
// due every 10ms that each take 25ms. Every op's latency must count
// from its due time, so the queueing the stall causes shows.
func TestDueTimeAccounting(t *testing.T) {
	const n, every, takes = 6, 10 * time.Millisecond, 25 * time.Millisecond
	var as []*arrival
	for i := range n {
		as = append(as, &arrival{At: time.Duration(i) * every, Stream: -1, Run: func(context.Context, *arrival) error {
			time.Sleep(takes)
			return nil
		}})
	}
	runOpenLoop(context.Background(), as, 1, time.Minute)
	for i, a := range as {
		if a.failed() {
			t.Fatalf("op %d failed: %v", i, a.Err)
		}
		if got := a.due.Sub(as[0].due); got != time.Duration(i)*every {
			t.Errorf("op %d due %v after the first, want %v", i, got, time.Duration(i)*every)
		}
		// With one connection op i cannot start before i*takes.
		minLate := time.Duration(i)*(takes-every) - time.Millisecond
		if late := lateness(a.due, a.start); late < minLate {
			t.Errorf("op %d lateness %v, want at least %v", i, late, minLate)
		}
		if lat := dueLatency(a.due, a.end); lat < lateness(a.due, a.start)+takes {
			t.Errorf("op %d latency %v is less than its lateness plus its %v of work", i, lat, takes)
		}
	}
}

// TestStreamOrder checks that ops of one stream never overlap and run
// in due order, while other streams use the free connections.
func TestStreamOrder(t *testing.T) {
	var mu sync.Mutex
	inFlight := map[int]bool{}
	var order []int
	var as []*arrival
	for i := range 40 {
		stream := i % 2
		as = append(as, &arrival{At: time.Duration(i) * time.Millisecond, Stream: stream, Run: func(context.Context, *arrival) error {
			mu.Lock()
			if inFlight[stream] {
				t.Errorf("stream %d ran two ops at once", stream)
			}
			inFlight[stream] = true
			if stream == 0 {
				order = append(order, i)
			}
			mu.Unlock()
			time.Sleep(3 * time.Millisecond)
			mu.Lock()
			inFlight[stream] = false
			mu.Unlock()
			return nil
		}})
	}
	runOpenLoop(context.Background(), as, 4, time.Minute)
	if !slices.IsSorted(order) || len(order) != 20 {
		t.Errorf("stream 0 ran %v, want its 20 ops in due order", order)
	}
}

// TestSmoke runs every workload for a few seconds on shrunken inputs,
// untraced and traced, against a backboned built from this checkout,
// and checks each run reports exactly the metrics BENCHMARK.json
// declares with every output correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds backboned and starts daemons")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "backboned")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/backboned")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build backboned: %v\n%s", err, out)
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, runner := range workloads {
		for _, traced := range []bool{false, true} {
			o := &options{Workload: name, Seed: 7, Seconds: 3, Trace: traced, Smoke: true, Nproc: 2, Backboned: bin, Out: dir}
			units, err := loadSpec("../BENCHMARK.json", traced)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runner(context.Background(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Mismatches != 0 || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed, %d mismatched", name, traced, rep.Attempted, rep.Failed, rep.Mismatches)
			}
			for m := range rep.Metrics {
				if _, ok := units[m]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %s", name, traced, m)
				}
			}
			if !traced {
				for m := range units {
					if v, ok := rep.Metrics[m]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, %v; want a positive value", name, m, v, ok)
					}
				}
			}
		}
	}
}
