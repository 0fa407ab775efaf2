// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, runs the workload against the library
// in-process or against backboned daemons it starts over loopback HTTP,
// checks every output against library reference bytes, and prints
// every metric BENCHMARK.json declares for the run's kind: end-to-end
// metrics untraced, per-layer metrics traced. The last line of
// standard output is the result as one JSON object.
//
// Run it through run.sh from the repository root, which builds the
// daemon and this command from the checkout's sources first:
//
//	bash perfbench/run.sh --workload batch-1m --seed 1 --seconds 30 --trace 0
//
// --smoke shrinks every input so each workload finishes in seconds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// options is one run's configuration.
type options struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Smoke     bool    `json:"smoke"`
	Nproc     int     `json:"nproc"`
	Backboned string  `json:"-"`
	Out       string  `json:"-"`
}

// report is what a workload measured.
type report struct {
	Attempted  int64
	Failed     int64
	Mismatches int64 // failed ops whose bytes differed from the reference
	Metrics    map[string]float64
	// Config records the workload's own settings: rates, op counts,
	// daemon flags and GOMAXPROCS of every process, ratio bases.
	Config map[string]any
}

func newReport() *report {
	return &report{Metrics: map[string]float64{}, Config: map[string]any{}}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o *options) (*report, error){
	"batch-1m":     runBatch,
	"serve-mix":    runServeMix,
	"session-live": runSessionLive,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var spec string
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload: batch-1m, serve-mix or session-live")
	flag.Int64Var(&o.Seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.Seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.BoolVar(&o.Smoke, "smoke", false, "shrink every input so a run takes seconds")
	flag.StringVar(&o.Backboned, "backboned", "", "backboned binary to start")
	flag.StringVar(&o.Out, "out", ".bench_build", "directory for logs and traces")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "metric declarations")
	flag.Parse()
	o.Trace = trace == 1
	if err := run(&o, spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *options, specPath string) error {
	runner, ok := workloads[o.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	units, err := loadSpec(specPath, o.Trace)
	if err != nil {
		return err
	}
	o.Nproc = runtime.NumCPU()
	// The load generator may use at most nproc threads.
	runtime.GOMAXPROCS(o.Nproc)
	if err := os.MkdirAll(filepath.Join(o.Out, "runs"), 0o755); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every run ends well inside three minutes, daemons included.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	rep, err := runner(ctx, o)
	if err != nil {
		return err
	}

	if o.Trace {
		rep.Metrics["fail_frac"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
		// A layer the workload does not run spends no time and does no
		// work there: it reads 0, and the config names it.
		var idle []string
		for name := range units {
			if _, ok := rep.Metrics[name]; !ok {
				rep.Metrics[name] = 0
				idle = append(idle, name)
			}
		}
		sort.Strings(idle)
		rep.Config["not_exercised"] = idle
	}
	out := result{Correct: rep.Mismatches == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricOut{}}
	for name, unit := range units {
		v, ok := rep.Metrics[name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.Workload, name)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	for name := range rep.Metrics {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not declare", o.Workload, name)
		}
	}
	if out.Attempted < 1 {
		return errors.New("no op was attempted")
	}

	cfg := map[string]any{"run": o, "host": hostInfo(o), "workload": rep.Config}
	cj, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# config %s\n", cj)
	rj, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	if !out.Correct {
		return fmt.Errorf("%d responses differed from the library reference", rep.Mismatches)
	}
	return nil
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// setUp runs a workload's set-up setupReps times, tearing down every
// one but the last, and records each one's seconds.
func setUp(o *options, rep *report, setup func() error, teardown func()) error {
	var secs []float64
	for i := range setupReps {
		if i > 0 {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up %d took %.2fs\n", o.Workload, i+1, secs[i])
	}
	rep.Config["setup_s"] = secs
	if !o.Trace {
		rep.Metrics["setup_s"] = medianOr0(secs)
	}
	return nil
}

// loadSpec returns the unit of every metric the run must print: the
// end-to-end metrics untraced, the per-layer metrics traced.
func loadSpec(path string, traced bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations: %w", err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	ms := spec.EndToEnd
	if traced {
		ms = spec.PerLayer
	}
	units := map[string]string{}
	for _, m := range ms {
		units[m.Name] = m.Unit
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return units, nil
}

// hostInfo records what the numbers were measured on.
func hostInfo(o *options) map[string]any {
	h := map[string]any{
		"nproc":                o.Nproc,
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"go_version":           runtime.Version(),
		"goos":                 runtime.GOOS,
		"goarch":               runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var settings []string
		for _, s := range bi.Settings {
			settings = append(settings, s.Key+"="+s.Value)
		}
		sort.Strings(settings)
		h["build"] = settings
	}
	return h
}
