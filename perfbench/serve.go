package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// errMismatch marks a response whose bytes differ from the library's.
var errMismatch = errors.New("response differs from the library reference")

// nominalRPS is the open-loop rate the daemon workloads report their
// latencies at, about a third of what the daemons sustain on two CPUs.
const nominalRPS = 80

// nominalShare is the part of an untraced daemon run spent at the
// nominal rate; saturation gets the rest.
const nominalShare = 0.4

// saturateRPS bounds how many ops a saturation phase prepares per
// second of it; it sits well above what the daemons can complete.
const saturateRPS = 1000

// phaseMaker builds the arrivals of one phase: n ops at rate req/s.
// phase numbers the phases of a run so each draws its own ops.
type phaseMaker func(phase int, rate float64, n int) []*arrival

// loadGen is the measured load: at most conns concurrent requests over
// a counted, capped client.
type loadGen struct {
	conns  int
	cc     connCounter
	client *http.Client
	phases int
	onDone func(*arrival) // set while a traced phase replays its ops
}

func newLoadGen(conns int) *loadGen {
	g := &loadGen{conns: conns}
	g.client = loadClient(conns, &g.cc, 30*time.Second)
	return g
}

// run plays one phase of n arrivals at rate and checks the connection
// cap afterwards.
func (g *loadGen) run(ctx context.Context, mk phaseMaker, rate float64, n int) ([]*arrival, error) {
	g.phases++
	as := mk(g.phases, rate, n)
	for i, a := range as {
		a.At = time.Duration(float64(i) / rate * float64(time.Second))
		a.Done = g.onDone
	}
	runOpenLoop(ctx, as, g.conns, 2*time.Second)
	if err := g.capped(); err != nil {
		return nil, err
	}
	return as, ctx.Err()
}

// capped fails the run if the generator ever held more connections
// than its cap.
func (g *loadGen) capped() error {
	if p := g.cc.peak.Load(); p > int64(g.conns) {
		return fmt.Errorf("the load generator opened %d connections, over its cap of %d", p, g.conns)
	}
	return nil
}

// endToEnd is an untraced run of a daemon workload: nominalShare of the
// window at the nominal rate, then the rest with every connection kept
// busy. It sets p50_ms from the first part and capacity_rps from the
// second.
func (g *loadGen) endToEnd(ctx context.Context, mk phaseMaker, seconds float64, rep *report) error {
	nominal, err := g.run(ctx, mk, nominalRPS, opsFor(nominalRPS, seconds*nominalShare))
	if err != nil {
		return err
	}
	tally(nominal, rep)
	lat := latencies(nominal, nil)
	p50, err := median("p50_ms", lat)
	if err != nil {
		return err
	}
	capRPS, sent, err := g.saturate(ctx, mk, time.Duration(seconds*(1-nominalShare)*float64(time.Second)))
	if err != nil {
		return err
	}
	tally(sent, rep)
	rep.Metrics["p50_ms"] = p50
	rep.Metrics["capacity_rps"] = capRPS
	rep.Config["nominal_ops"] = len(nominal)
	rep.Config["saturation_ops"] = len(sent)
	return nil
}

// saturate offers every op at once for d, so each connection sends its
// next op the moment the previous one returns, and returns the ops
// completed per second: the highest arrival rate the daemons sustain
// without a growing backlog. Ops not started within d are never sent
// and not returned.
func (g *loadGen) saturate(ctx context.Context, mk phaseMaker, d time.Duration) (float64, []*arrival, error) {
	g.phases++
	as := mk(g.phases, saturateRPS, opsFor(saturateRPS, d.Seconds()))
	start := time.Now()
	runOpenLoop(ctx, as, g.conns, d)
	if err := g.capped(); err != nil {
		return 0, nil, err
	}
	var sent []*arrival
	done, last := 0, start
	for _, a := range as {
		if a.Dropped {
			continue
		}
		sent = append(sent, a)
		if !a.failed() {
			done++
			if a.end.After(last) {
				last = a.end
			}
		}
	}
	return throughput(done, last.Sub(start)), sent, ctx.Err()
}

// traced is a traced run of a daemon workload: half the window at the
// nominal rate untraced, then between, then the other half with every
// finished op handed, in completion order, to replay on one goroutine,
// off the ops' clocks. A replay error marks its op failed.
func (g *loadGen) traced(ctx context.Context, mk phaseMaker, seconds float64, rep *report, between func() error, replay func(*arrival) error) (plain, traced []*arrival, err error) {
	n := opsFor(nominalRPS, seconds/2)
	if plain, err = g.run(ctx, mk, nominalRPS, n); err != nil {
		return nil, nil, err
	}
	tally(plain, rep)
	if err := between(); err != nil {
		return nil, nil, err
	}
	done := make(chan *arrival, n) // one send per op
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := range done {
			if err := replay(a); err != nil {
				a.Err = err
			}
		}
	}()
	g.onDone = func(a *arrival) { done <- a }
	traced, err = g.run(ctx, mk, nominalRPS, n)
	g.onDone = nil
	close(done)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	tally(traced, rep)
	return plain, traced, nil
}

// countMismatches counts ops whose bytes were wrong; the run is then
// incorrect whatever phase they fell in.
func countMismatches(as []*arrival, rep *report) {
	for _, a := range as {
		if errors.Is(a.Err, errMismatch) {
			rep.Mismatches++
		}
	}
}

// tally adds a measured phase's ops to the run's attempted and failed
// counts.
func tally(as []*arrival, rep *report) {
	for _, a := range as {
		rep.Attempted++
		if a.failed() {
			rep.Failed++
		}
	}
	countMismatches(as, rep)
}

// latencies returns the due-time latencies (ms) of the successful ops
// whose class passes keep.
func latencies(as []*arrival, keep func(*arrival) bool) []float64 {
	var out []float64
	for _, a := range as {
		if !a.failed() && (keep == nil || keep(a)) {
			out = append(out, a.latencyMs())
		}
	}
	return out
}

func lateP99(as []*arrival) float64 {
	var late []float64
	for _, a := range as {
		if !a.Dropped {
			late = append(late, a.lateMs())
		}
	}
	if len(late) == 0 {
		return 0
	}
	return p99OrMax(late)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

func opsFor(rate, seconds float64) int { return max(1, int(rate*seconds)) }

// respBufs recycles response buffers: the generator reads every
// response in full, and reusing the buffers keeps its own garbage
// collection from taking CPU time the daemons are measured on.
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// exchange sends req and reads the whole response into a buffer from
// respBufs, which the caller puts back. A non-2xx status is an error.
func exchange(c *http.Client, req *http.Request) (*bytes.Buffer, http.Header, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	buf := respBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		respBufs.Put(buf)
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		err := &errStatus{code: resp.StatusCode, body: buf.String()}
		respBufs.Put(buf)
		return nil, nil, err
	}
	return buf, resp.Header, nil
}

// peakRSS sums the daemons' peak resident sets in MB.
func peakRSS(ds []*daemon) (float64, error) {
	var sum float64
	for _, d := range ds {
		v, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
