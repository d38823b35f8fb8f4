package resilience

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a stepped test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucketRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewTokenBucket(2, 3, clk.now) // 2 tokens/s, burst 3
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("burst token %d refused", i)
		}
	}
	if b.Allow() {
		t.Fatal("allowed past burst with no time elapsed")
	}
	if ri := b.RetryIn(); ri <= 0 || ri > time.Second {
		t.Fatalf("RetryIn = %v, want (0, 1s]", ri)
	}
	clk.advance(500 * time.Millisecond) // refills exactly 1 token
	if !b.Allow() {
		t.Fatal("refused after refill")
	}
	if b.Allow() {
		t.Fatal("allowed a token that has not refilled yet")
	}
	// Refill never exceeds burst.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("post-idle token %d refused", i)
		}
	}
	if b.Allow() {
		t.Fatal("idle refill exceeded burst")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	b := NewTokenBucket(0, 1, nil)
	for i := 0; i < 1000; i++ {
		if !b.Allow() {
			t.Fatal("unlimited bucket refused")
		}
	}
	if b.RetryIn() != 0 {
		t.Fatal("unlimited bucket has nonzero RetryIn")
	}
}

func TestClientLimiterIsolation(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := NewClientLimiter(1, 2, 0, clk.now)
	// Client a exhausts its burst; client b is unaffected.
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("a burst %d refused", i)
		}
	}
	if ok, retryIn := l.Allow("a"); ok || retryIn <= 0 {
		t.Fatalf("a over budget: ok=%v retryIn=%v", ok, retryIn)
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b punished for a's stampede")
	}
}

func TestClientLimiterBoundedLRU(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := NewClientLimiter(1, 1, 8, clk.now)
	// A flood of unique identities (spoofed X-Client-Id) never grows the
	// map past the cap.
	for i := 0; i < 1000; i++ {
		l.Allow(fmt.Sprintf("spoof-%d", i))
		if n := l.Len(); n > 8 {
			t.Fatalf("client map exceeded cap: %d live after %d inserts", n, i+1)
		}
	}
	if n := l.Len(); n != 8 {
		t.Fatalf("len = %d, want 8 (full cap)", n)
	}
	// Eviction is least-recently-seen: an identity kept active survives
	// a flood that displaces the idle ones.
	l.Allow("vehicle-hot")
	for i := 0; i < 7; i++ {
		l.Allow(fmt.Sprintf("new-%d", i))
		l.Allow("vehicle-hot") // refresh recency (refused — no tokens — but seen)
	}
	l.Allow("new-last")
	if ok, _ := l.Allow("vehicle-hot"); ok {
		t.Fatal("active limited client was evicted by the flood (debt forgotten)")
	}
}

// TestClientLimiterConcurrentFirstRequests: racing first requests of
// one client share one bucket (get-or-create is atomic), so exactly
// burst of them pass.
func TestClientLimiterConcurrentFirstRequests(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	for round := 0; round < 20; round++ {
		l := NewClientLimiter(1, 3, 8, clk.now)
		var passed atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if ok, _ := l.Allow("vehicle"); ok {
					passed.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := passed.Load(); n != 3 {
			t.Fatalf("round %d: %d first requests passed, want burst 3", round, n)
		}
	}
}

func TestSemaphoreWeighted(t *testing.T) {
	s := NewSemaphore(4)
	ctx := context.Background()
	if err := s.Acquire(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if !s.TryAcquire(1) {
		t.Fatal("unit did not fit beside weight-3")
	}
	if s.TryAcquire(1) {
		t.Fatal("acquired past capacity")
	}
	// A waiter too heavy for the whole semaphore fails fast.
	if err := s.Acquire(ctx, 5); err == nil {
		t.Fatal("over-capacity acquire succeeded")
	}
	// A bounded wait on a full semaphore times out.
	tctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := s.Acquire(tctx, 1); err == nil {
		t.Fatal("acquire on full semaphore returned without capacity")
	}
	s.Release(3)
	s.Release(1)
	if got := s.InUse(); got != 0 {
		t.Fatalf("InUse = %d after full release", got)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	s := NewSemaphore(2)
	ctx := context.Background()
	if err := s.Acquire(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Heavy waiter queues first; light waiter must not overtake it.
	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Acquire(ctx, 2); err == nil {
			order <- "heavy"
			s.Release(2)
		}
	}()
	// Give the heavy waiter time to enqueue before the light one.
	time.Sleep(20 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Acquire(ctx, 1); err == nil {
			order <- "light"
			s.Release(1)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire jumped the waiter queue")
	}
	s.Release(2)
	wg.Wait()
	close(order)
	var got []string
	for o := range order {
		got = append(got, o)
	}
	if len(got) != 2 || got[0] != "heavy" || got[1] != "light" {
		t.Fatalf("admission order = %v, want [heavy light]", got)
	}
}

func TestSemaphoreCancelledWaiterUnblocksQueue(t *testing.T) {
	s := NewSemaphore(2)
	ctx := context.Background()
	if err := s.Acquire(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Head waiter wants 2 (won't fit after partial release); it cancels,
	// and the waiter behind it (wants 1) must be granted.
	hctx, hcancel := context.WithCancel(ctx)
	headErr := make(chan error, 1)
	go func() { headErr <- s.Acquire(hctx, 2) }()
	time.Sleep(20 * time.Millisecond)
	got := make(chan error, 1)
	go func() { got <- s.Acquire(ctx, 1) }()
	time.Sleep(20 * time.Millisecond)
	s.Release(1) // 1 unit free: not enough for head (2), enough for second (1)
	hcancel()
	if err := <-headErr; err == nil {
		t.Fatal("cancelled head waiter acquired")
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued waiter after cancelled head: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter behind cancelled head never granted")
	}
}

func TestResponseCacheLRU(t *testing.T) {
	c := newResponseCache(2)
	r := func(s string) *capturedResponse {
		cp := newCapture()
		_, _ = cp.Write([]byte(s))
		return cp
	}
	c.put("a", r("A"))
	c.put("b", r("B"))
	if _, ok := c.get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.put("c", r("C")) // evicts b (LRU)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently-used a evicted")
	}
	c.invalidate("a")
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived invalidation")
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}
