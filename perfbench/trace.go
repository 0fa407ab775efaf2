package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call. Op is the root span's ID shared by every span
// of one op; a root span has Parent 0. Start and End are offsets from
// the tracer's epoch. Bytes is the payload the call read or wrote,
// where that is meaningful.
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// newOp allocates the ID of an op's root span; 0 on a nil tracer.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.id()
}

// finish records op's root span over [start, end).
func (t *tracer) finish(op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: op, Op: op, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// child runs fn as a span named name under the op's root span, and
// returns fn's byte count and error.
func (t *tracer) child(op int64, name string, fn func() (int64, error)) error {
	if t == nil {
		_, err := fn()
		return err
	}
	start := time.Now()
	n, err := fn()
	end := time.Now()
	t.add(span{ID: t.id(), Op: op, Parent: op, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Bytes: n})
	return err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// replay runs the calls of an op that already completed, off that op's
// clock, and records them as its children placed back to back from the
// op's start, so the root's self time is the op's latency minus the
// replayed work.
type replay struct {
	t      *tracer
	op     int64
	opAt   int64 // root span start
	offset int64 // replayed time recorded so far
}

// replayOf starts the replay of op, whose root span began at opStart.
func (t *tracer) replayOf(op int64, opStart time.Time) *replay {
	return &replay{t: t, op: op, opAt: int64(opStart.Sub(t.epoch))}
}

func (r *replay) child(name string, fn func() (int64, error)) error {
	start := time.Now()
	n, err := fn()
	d := int64(time.Since(start))
	s := r.opAt + r.offset
	r.offset += d
	r.t.add(span{ID: r.t.id(), Op: r.op, Parent: r.op, Name: name, Start: s, End: s + d, Bytes: n})
	return err
}

// byOp groups spans by op: the root span and its children.
func (t *tracer) byOp() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64][]span{}
	for _, s := range t.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// durations returns the durations (ms) and byte counts of every span
// named name.
func (t *tracer) durations(name string) (msv []float64, bytes []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			msv = append(msv, ms(s.dur()))
			bytes = append(bytes, s.Bytes)
		}
	}
	return msv, bytes
}

// selfTimes returns, for every root span named root, its self time in
// ms and the share of it its children cover.
func (t *tracer) selfTimes(root string) (selfMs, cover []float64) {
	for _, ss := range t.byOp() {
		var parent span
		var kids []interval
		for _, s := range ss {
			if s.Parent == 0 {
				parent = s
			} else {
				kids = append(kids, interval{time.Duration(s.Start), time.Duration(s.End)})
			}
		}
		if parent.Name != root || parent.ID == 0 {
			continue
		}
		self := selfTime(interval{time.Duration(parent.Start), time.Duration(parent.End)}, kids)
		selfMs = append(selfMs, ms(self))
		cover = append(cover, 1-float64(self)/float64(parent.dur()))
	}
	return selfMs, cover
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
