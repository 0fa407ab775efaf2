package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New[string, int](1 << 20)
	calls := 0
	compute := func() (int, int64, error) { calls++; return 42, 8, nil }

	v, hit, err := c.Do(context.Background(), "k", compute)
	if err != nil || hit || v != 42 {
		t.Fatalf("first Do = %d,%v,%v", v, hit, err)
	}
	v, hit, err = c.Do(context.Background(), "k", compute)
	if err != nil || !hit || v != 42 {
		t.Fatalf("second Do = %d,%v,%v", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 8 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEvictionOrderAndBudget(t *testing.T) {
	c := New[int, string](30)
	for i := 0; i < 3; i++ {
		c.Add(i, fmt.Sprint(i), 10) // fills the budget exactly
	}
	if _, ok := c.Get(0); !ok {
		t.Fatal("entry 0 evicted prematurely")
	}
	// Entry 0 is now most recent; adding one more must evict 1 (LRU).
	c.Add(3, "3", 10)
	if _, ok := c.Get(1); ok {
		t.Error("LRU entry 1 not evicted")
	}
	for _, want := range []int{0, 2, 3} {
		if _, ok := c.Get(want); !ok {
			t.Errorf("entry %d missing", want)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 30 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New[string, int](10)
	c.Add("big", 1, 100)
	if c.Len() != 0 {
		t.Errorf("oversized entry stored (len %d)", c.Len())
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := New[string, int](100)
	c.Add("k", 1, 40)
	c.Add("k", 2, 10)
	if s := c.Stats(); s.Bytes != 10 || s.Entries != 1 {
		t.Errorf("stats after replace = %+v", s)
	}
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Errorf("Get = %d,%v", v, ok)
	}
	c.Add("j", 3, 30)
	if !c.Remove("k") {
		t.Error("Remove of a cached key = false")
	}
	if c.Remove("k") {
		t.Error("second Remove = true")
	}
	if s := c.Stats(); s.Bytes != 30 || s.Entries != 1 || s.Evictions != 0 {
		t.Errorf("stats after Remove = %+v", s)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("removed key still cached")
	}
}

// TestSingleFlight: concurrent Do calls for one key run compute once;
// everyone gets the value, late callers count as coalesced or hits.
func TestSingleFlight(t *testing.T) {
	c := New[string, int](1 << 20)
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (int, int64, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, 1, nil
	}
	var wg sync.WaitGroup
	results := make(chan int, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do(context.Background(), "k", compute)
		if err != nil {
			t.Error(err)
		}
		results <- v
	}()
	<-started
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func() (int, int64, error) {
				t.Error("second compute ran")
				return 0, 0, nil
			})
			if err != nil || !hit {
				t.Errorf("waiter: %d,%v,%v", v, hit, err)
			}
			results <- v
		}()
	}
	time.Sleep(20 * time.Millisecond) // let waiters enqueue
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 7 {
			t.Errorf("result %d, want 7", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

// TestLeaderFailureDoesNotPoisonWaiters: when the leader's compute
// fails (e.g. its request was cancelled), a waiter retries as the new
// leader instead of inheriting the error.
func TestLeaderFailureDoesNotPoisonWaiters(t *testing.T) {
	c := New[string, int](1 << 20)
	boom := errors.New("leader cancelled")
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (int, int64, error) {
			close(started)
			<-release
			return 0, 0, boom
		})
		leaderDone <- err
	}()
	<-started

	waiterDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func() (int, int64, error) {
			return 9, 1, nil
		})
		if v != 9 && err == nil {
			t.Errorf("waiter got %d, want 9", v)
		}
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Errorf("leader err = %v, want %v", err, boom)
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter err = %v, want nil (retried)", err)
	}
	if v, ok := c.Get("k"); !ok || v != 9 {
		t.Errorf("cache after retry = %d,%v", v, ok)
	}
}

// TestWaiterHonorsContext: a waiter whose own context dies while the
// leader computes gives up with the context error.
func TestWaiterHonorsContext(t *testing.T) {
	c := New[string, int](1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), "k", func() (int, int64, error) {
		close(started)
		<-release
		return 1, 1, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (int, int64, error) { return 0, 0, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

// TestNilCache: the nil cache is a valid always-miss implementation.
func TestNilCache(t *testing.T) {
	var c *LRU[string, int]
	if c != New[string, int](0) {
		t.Error("New(0) is not nil")
	}
	v, hit, err := c.Do(context.Background(), "k", func() (int, int64, error) { return 5, 1, nil })
	if v != 5 || hit || err != nil {
		t.Errorf("nil Do = %d,%v,%v", v, hit, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("nil Get hit")
	}
	c.Add("k", 1, 1)
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache retained state")
	}
	if c.Contains("k") {
		t.Error("nil Contains reported true")
	}
	if c.Remove("k") {
		t.Error("nil Remove reported true")
	}
}

// TestContainsIsStatsAndRecencyNeutral pins the peek contract: lane
// classification probes the cache on every request and must neither
// skew the hit/miss counters nor protect entries from eviction.
func TestContainsIsStatsAndRecencyNeutral(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)

	if !c.Contains("a") || !c.Contains("b") || c.Contains("missing") {
		t.Fatal("Contains residency answers wrong")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains moved counters: %+v", st)
	}

	// Peeking "a" many times must not refresh it: "a" is still the LRU
	// entry and the next insert evicts it, not "b".
	for i := 0; i < 10; i++ {
		c.Contains("a")
	}
	c.Add("c", 3, 1)
	if c.Contains("a") {
		t.Error("Contains bumped recency: LRU entry survived eviction")
	}
	if !c.Contains("b") || !c.Contains("c") {
		t.Error("wrong entry evicted")
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines for
// the race detector.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int, int](1 << 10)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := (i + j) % 37
				v, _, err := c.Do(context.Background(), k, func() (int, int64, error) {
					return k * 2, 16, nil
				})
				if err != nil || v != k*2 {
					t.Errorf("Do(%d) = %d,%v", k, v, err)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestLeaderPanicDoesNotWedgeKey: a panicking compute must clean up
// its flight — waiters retry, later callers compute normally.
func TestLeaderPanicDoesNotWedgeKey(t *testing.T) {
	c := New[string, int](1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }() // the panic propagates to the leader's caller
		c.Do(context.Background(), "k", func() (int, int64, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func() (int, int64, error) { return 3, 1, nil })
		if err == nil && v != 3 {
			t.Errorf("waiter got %d, want 3", v)
		}
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter err = %v, want nil (retried after leader panic)", err)
	}
	// The key works normally afterwards.
	v, _, err := c.Do(context.Background(), "k", func() (int, int64, error) { return 4, 1, nil })
	if err != nil || v != 3 { // waiter's retry cached 3
		t.Errorf("post-panic Do = %d,%v", v, err)
	}
}
