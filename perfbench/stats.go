package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie strictly beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether the percentile rule holds for it. xs need not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s)))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// median is the 0.5 percentile; too few samples for the rule is an
// error, since every median the benchmark reports is gated.
func median(name string, xs []float64) (float64, error) {
	v, ok := percentile(xs, 0.5)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples are too few for a median (need %d beyond it)", name, len(xs), minBeyond)
	}
	return v, nil
}

// medianOr0 is median for optional per-layer figures: 0 when there are
// no samples at all, and the plain nearest-rank median below the rule.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// p99OrMax is the 99th percentile when the sample supports it (at
// least 1000 samples), else the maximum, which bounds it from above.
func p99OrMax(xs []float64) float64 {
	if v, ok := percentile(xs, 0.99); ok {
		return v
	}
	return slices.Max(xs)
}

// interval is a half-open time span [Start, End).
type interval struct{ Start, End time.Duration }

// selfTime is a parent span's duration minus the time its children
// cover. Children may overlap one another; overlapping time counts
// once. Child time outside the parent is not subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return int(a.Start - b.Start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// throughput is ops completed per second over elapsed.
func throughput(done int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(done) / elapsed.Seconds()
}

// dueLatency is an open-loop op's latency: from when it was due to be
// sent, not from when it was sent, so a stall also charges the wait it
// imposed on later arrivals.
func dueLatency(due, end time.Time) time.Duration { return end.Sub(due) }

// lateness is how far behind its schedule the generator started an op.
func lateness(due, start time.Time) time.Duration {
	return max(start.Sub(due), 0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
