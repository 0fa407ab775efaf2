package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one op of an open-loop phase. Ops of one stream (Stream >=
// 0) run one at a time in due order, the way one client orders its own
// requests; Stream < 0 ops run as soon as a connection is free.
type arrival struct {
	At     time.Duration // due offset from the phase start
	Stream int
	Class  string
	Run    func(ctx context.Context, a *arrival) error
	// Done, when set, is called once the op's times are recorded.
	Done func(a *arrival)

	due, start, end time.Time
	Err             error
	Dropped         bool // never sent: the phase ran out of time
	Info            any  // what Run recorded for checking and replay
}

func (a *arrival) latencyMs() float64 { return ms(dueLatency(a.due, a.end)) }
func (a *arrival) lateMs() float64    { return ms(lateness(a.due, a.start)) }
func (a *arrival) failed() bool       { return a.Dropped || a.Err != nil }

// errDropped marks an arrival the generator could not send before the
// phase's grace period ended.
var errDropped = errors.New("not sent before the phase ended")

// runOpenLoop sends every arrival at its due time over at most conns
// concurrent requests. Arrivals that find every connection busy queue
// in the generator, and their latency still counts from their due
// time. An arrival not started within grace of the last due time is
// dropped, so an overloaded phase ends in bounded time.
func runOpenLoop(ctx context.Context, arrivals []*arrival, conns int, grace time.Duration) {
	if len(arrivals) == 0 {
		return
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	cutoff := t0.Add(arrivals[len(arrivals)-1].At + grace)

	var (
		mu         sync.Mutex
		cond       = sync.NewCond(&mu)
		queue      []*arrival
		busy       = map[int]bool{}
		dispatched bool
	)
	go func() {
		for _, a := range arrivals {
			a.due = t0.Add(a.At)
			if d := time.Until(a.due); d > 0 {
				time.Sleep(d)
			}
			mu.Lock()
			queue = append(queue, a)
			mu.Unlock()
			cond.Broadcast()
		}
		mu.Lock()
		dispatched = true
		mu.Unlock()
		cond.Broadcast()
	}()

	// next takes the earliest queued arrival whose stream is idle; nil
	// once everything has been dispatched and taken.
	next := func() *arrival {
		mu.Lock()
		defer mu.Unlock()
		for {
			i := slices.IndexFunc(queue, func(a *arrival) bool { return a.Stream < 0 || !busy[a.Stream] })
			if i >= 0 {
				// Close the gap from the front: i is small, the queue
				// may hold a whole saturation phase.
				a := queue[i]
				copy(queue[1:i+1], queue[:i])
				queue = queue[1:]
				if a.Stream >= 0 {
					busy[a.Stream] = true
				}
				return a
			}
			if dispatched && len(queue) == 0 {
				return nil
			}
			cond.Wait()
		}
	}
	release := func(a *arrival) {
		if a.Stream < 0 {
			return
		}
		mu.Lock()
		busy[a.Stream] = false
		mu.Unlock()
		cond.Broadcast()
	}

	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := next(); a != nil; a = next() {
				a.start = time.Now()
				if a.start.After(cutoff) {
					a.Dropped, a.Err, a.end = true, errDropped, a.start
				} else {
					a.Err = a.Run(ctx, a)
					a.end = time.Now()
				}
				if a.Done != nil {
					a.Done(a)
				}
				release(a)
			}
		}()
	}
	wg.Wait()
}

// connCounter counts the load generator's open TCP connections, so a
// run can prove it never exceeded its connection cap.
type connCounter struct {
	open, peak atomic.Int64
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.c.open.Add(-1) })
	return c.Conn.Close()
}

// loadClient is an HTTP client capped at conns connections per host
// whose dials are counted.
func loadClient(conns int, cc *connCounter, timeout time.Duration) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n := cc.open.Add(1)
			for p := cc.peak.Load(); n > p && !cc.peak.CompareAndSwap(p, n); p = cc.peak.Load() {
			}
			return &countedConn{Conn: conn, c: cc}, nil
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: timeout}
}
