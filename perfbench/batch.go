package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro"
	"repro/internal/gen"
)

// batch-1m: the library in-process, closed loop, one caller. One op
// parses the Fig-9 Erdős–Rényi corpus from CSV bytes, then scores,
// extracts the top 10% and writes CSV for each of batchMethods.
var batchMethods = []string{"nc", "df", "nt"}

const (
	batchEdges      = 1_000_000
	batchSmokeEdges = 20_000
	batchFrac       = 0.1
)

type batchInput struct {
	csv   []byte
	edges int
	refs  map[string][]byte
}

// batchSetup generates the corpus from the seed and writes it as CSV.
func batchSetup(o *options) (*batchInput, error) {
	m := batchEdges
	if o.Smoke {
		m = batchSmokeEdges
	}
	rng := rand.New(rand.NewSource(o.Seed))
	g0 := gen.ErdosRenyiGNM(rng, 2*m/3, m) // average degree three, as in Fig. 9
	var csv bytes.Buffer
	if err := repro.WriteGraph(&csv, g0, repro.WithFormat("csv")); err != nil {
		return nil, err
	}
	return &batchInput{csv: csv.Bytes(), edges: g0.NumEdges()}, nil
}

// references computes each method's reference bytes through the
// library's one-call pipeline (Backbone scoring internally), which the
// op's Score-then-WithScores path must match byte for byte.
func (in *batchInput) references() error {
	g, err := repro.ReadGraph(bytes.NewReader(in.csv), repro.WithFormat("csv"))
	if err != nil {
		return err
	}
	in.refs = map[string][]byte{}
	for _, meth := range batchMethods {
		res, err := repro.Backbone(g, repro.WithMethod(meth), repro.WithTopFraction(batchFrac))
		if err != nil {
			return fmt.Errorf("reference %s: %w", meth, err)
		}
		var out bytes.Buffer
		if err := res.Backbone.WriteCSV(&out); err != nil {
			return err
		}
		in.refs[meth] = out.Bytes()
	}
	return nil
}

// batchOp runs one op; with a tracer every public call is a child span
// of the op. It returns how many outputs differed from the reference.
func batchOp(in *batchInput, t *tracer, buf *bytes.Buffer) (mismatches int, err error) {
	op := t.newOp()
	start := time.Now()
	var g *repro.Graph
	err = t.child(op, "graph.read", func() (int64, error) {
		var err error
		g, err = repro.ReadGraph(bytes.NewReader(in.csv), repro.WithFormat("csv"))
		return int64(len(in.csv)), err
	})
	if err != nil {
		return 0, err
	}
	for _, meth := range batchMethods {
		var s *repro.Scores
		if err := t.child(op, "filter.score."+meth, func() (int64, error) {
			var err error
			s, err = repro.Score(g, repro.WithMethod(meth))
			return 0, err
		}); err != nil {
			return 0, err
		}
		var res *repro.Result
		if err := t.child(op, "filter.extract", func() (int64, error) {
			var err error
			res, err = repro.Backbone(g, repro.WithMethod(meth), repro.WithScores(s), repro.WithTopFraction(batchFrac))
			return 0, err
		}); err != nil {
			return 0, err
		}
		buf.Reset()
		if err := t.child(op, "graph.write", func() (int64, error) {
			err := repro.WriteGraph(buf, res.Backbone, repro.WithFormat("csv"))
			return int64(buf.Len()), err
		}); err != nil {
			return 0, err
		}
		if !bytes.Equal(buf.Bytes(), in.refs[meth]) {
			mismatches++
		}
	}
	t.finish(op, "op", start, time.Now())
	return mismatches, nil
}

// batchLoop runs ops back to back for d, and on past it until at least
// minOps have run, and returns their latencies.
func batchLoop(ctx context.Context, in *batchInput, t *tracer, d time.Duration, minOps int, rep *report) ([]float64, time.Duration, error) {
	var lat []float64
	var buf bytes.Buffer
	start := time.Now()
	for time.Since(start) < d || len(lat) < minOps {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		bad, err := batchOp(in, t, &buf)
		if err != nil {
			return nil, 0, err
		}
		lat = append(lat, ms(time.Since(t0)))
		rep.Attempted++
		if bad > 0 {
			rep.Failed++
			rep.Mismatches++
		}
	}
	return lat, time.Since(start), nil
}

func runBatch(ctx context.Context, o *options) (*report, error) {
	rep := newReport()
	var in *batchInput
	err := setUp(o, rep, func() error {
		var err error
		in, err = batchSetup(o)
		return err
	}, func() { in = nil })
	if err != nil {
		return nil, err
	}
	if err := in.references(); err != nil {
		return nil, err
	}
	rep.Config["edges"] = in.edges
	rep.Config["csv_bytes"] = len(in.csv)
	rep.Config["methods"] = batchMethods
	rep.Config["frac"] = batchFrac
	rep.Config["loop"] = "closed, one caller"
	// Return set-up garbage to the OS so the sampled RSS is the op's.
	debug.FreeOSMemory()

	window := time.Duration(o.Seconds * float64(time.Second))
	if !o.Trace {
		rss := sampleRSS()
		// A slow host still gets enough ops for a median under the
		// percentile rule.
		lat, elapsed, err := batchLoop(ctx, in, nil, window, 2*minBeyond, rep)
		peak := rss.stop()
		if err != nil {
			return nil, err
		}
		p50, err := median("p50_ms", lat)
		if err != nil {
			return nil, err
		}
		ops := float64(len(lat))
		rep.Metrics["p50_ms"] = p50
		rep.Metrics["capacity_rps"] = ops / elapsed.Seconds()
		rep.Metrics["edges_per_s"] = ops * float64(in.edges) / elapsed.Seconds()
		rep.Metrics["peak_rss_mb"] = peak
		rep.Config["ops"] = len(lat)
		return rep, nil
	}

	// Traced: half the window untraced, half traced, so the tracing
	// overhead is measured within the run.
	plain, _, err := batchLoop(ctx, in, nil, window/2, 1, rep)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	traced, _, err := batchLoop(ctx, in, t, window/2, 1, rep)
	if err != nil {
		return nil, err
	}
	if err := t.write(tracePath(o)); err != nil {
		return nil, err
	}
	read, _ := t.durations("graph.read")
	readMs := medianOr0(read)
	write, wbytes := t.durations("graph.write")
	extract, _ := t.durations("filter.extract")
	_, cover := t.selfTimes("op")
	rep.Metrics["graph.read_ms"] = readMs
	rep.Metrics["graph.read_mb_s"] = float64(len(in.csv)) / 1e6 / (readMs / 1e3)
	rep.Metrics["graph.write_ms"] = medianOr0(write)
	rep.Metrics["graph.write_bytes"] = meanInt(wbytes)
	rep.Metrics["filter.extract_ms"] = medianOr0(extract)
	for _, meth := range batchMethods {
		d, _ := t.durations("filter.score." + meth)
		rep.Metrics["filter.score_ms."+meth] = medianOr0(d)
	}
	rep.Metrics["trace.child_cover_frac"] = medianOr0(cover)
	rep.Metrics["trace.overhead_frac"] = medianOr0(traced)/medianOr0(plain) - 1
	rep.Metrics["cold_p50_ms"] = medianOr0(plain) // every op parses and scores from scratch
	rep.Metrics["p99_ms"] = p99OrMax(plain)
	rep.Config["ops_untraced"] = len(plain)
	rep.Config["ops_traced"] = len(traced)
	return rep, nil
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func tracePath(o *options) string {
	return fmt.Sprintf("%s/runs/trace-%s-seed%d.jsonl", o.Out, o.Workload, o.Seed)
}

// rssSampler records this process's peak resident set while it runs.
type rssSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := procStatusMB(os.Getpid(), "VmRSS:"); err == nil {
				s.peak = max(s.peak, v)
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.done)
	s.wg.Wait()
	return s.peak
}
