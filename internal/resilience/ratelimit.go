// Package resilience makes the tile-distribution server survive its own
// clients. PR 1's chaos work assumed the network fails; this package
// assumes the fleet stampedes: a token-bucket per-client rate limiter,
// a weighted-semaphore admission controller that sheds load with
// 503 + Retry-After instead of collapsing, singleflight coalescing of
// identical in-flight reads, a hot-tile read-through LRU, per-request
// timeouts, and graceful drain. The survey's distribution sub-area
// (§IV) assumes one central map server feeding fleets of vehicles — at
// that scale overload is a certainty, not an anomaly, so the overload
// path gets the same treatment PR 1 gave the failure path: explicit,
// bounded, and testable on demand.
package resilience

import (
	"sync"
	"time"

	"hdmaps/internal/lru"
)

// TokenBucket is a classic token-bucket rate limiter: capacity Burst
// tokens, refilled at Rate tokens/second. The zero value is unusable;
// construct with NewTokenBucket. Safe for concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewTokenBucket creates a bucket that starts full. rate <= 0 is
// treated as unlimited (Allow always succeeds); burst <= 0 defaults
// to 1. now may be nil for the wall clock — tests inject a stepped
// fake so refill behaviour is deterministic.
func NewTokenBucket(rate float64, burst int, now func() time.Time) *TokenBucket {
	if burst <= 0 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	b := &TokenBucket{rate: rate, burst: float64(burst), now: now}
	b.tokens = b.burst
	b.last = now()
	return b
}

// Allow consumes one token if available and reports whether it could.
func (b *TokenBucket) Allow() bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// RetryIn reports how long until one token will be available — the
// honest value for a Retry-After header. Zero when a token is ready
// now.
func (b *TokenBucket) RetryIn() time.Duration {
	if b.rate <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if b.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// refill advances the bucket to now; callers hold b.mu.
func (b *TokenBucket) refill() {
	t := b.now()
	dt := t.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
}

// ClientLimiter maintains one TokenBucket per client identity so one
// hot vehicle (or a buggy updater in a retry loop) cannot starve the
// rest of the fleet. The client set is a hard-bounded LRU: a new
// identity past maxClients evicts the least-recently-seen bucket in
// O(1), so a flood of unique spoofed X-Client-Id values can neither
// grow the map past the cap nor trigger repeated O(n) scans under the
// lock. The tradeoff is that such a flood can evict an actively
// rate-limited client's bucket, forgetting its debt — acceptable
// because the admission semaphore still bounds total concurrency, and
// an attacker minting fresh identities was never held by per-identity
// buckets in the first place.
type ClientLimiter struct {
	rate  float64
	burst int
	now   func() time.Time

	mu      sync.Mutex
	buckets *lru.Cache[string, *TokenBucket]
}

// NewClientLimiter creates a limiter granting each client rate
// requests/second with the given burst. rate <= 0 disables limiting
// (Allow always succeeds). maxClients <= 0 defaults to 4096.
func NewClientLimiter(rate float64, burst, maxClients int, now func() time.Time) *ClientLimiter {
	if maxClients <= 0 {
		maxClients = 4096
	}
	if now == nil {
		now = time.Now
	}
	return &ClientLimiter{
		rate: rate, burst: burst, now: now,
		buckets: lru.New[string, *TokenBucket](maxClients),
	}
}

// Allow consumes one token from id's bucket, reporting whether the
// request may proceed and, when it may not, how long the client should
// wait before retrying.
func (l *ClientLimiter) Allow(id string) (ok bool, retryIn time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	// Get-or-create under one lock hold, so two first requests from one
	// client share a bucket.
	l.mu.Lock()
	b, found := l.buckets.Get(id)
	if !found {
		b = NewTokenBucket(l.rate, l.burst, l.now)
		l.buckets.Add(id, b)
	}
	l.mu.Unlock()
	if b.Allow() {
		return true, 0
	}
	return false, b.RetryIn()
}

// Len reports how many client buckets are live (diagnostic).
func (l *ClientLimiter) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buckets.Len()
}
