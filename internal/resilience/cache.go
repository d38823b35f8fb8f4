package resilience

import (
	"sync"

	"hdmaps/internal/lru"
)

// responseCache is a bounded LRU of captured 200-responses keyed by
// request path — the server-side hot-tile cache. Unlike the vehicle's
// storage.TileCache (which exists to serve *stale* data in outages),
// this cache must never serve stale data: the handler invalidates a
// path the moment a PUT or DELETE for it is accepted, so a read-through
// hit is always byte-identical to what the store would return. The
// racing case — a detached singleflight leader holding pre-write bytes
// when the write's invalidation runs — is closed on the flightGroup
// side: writes poison in-flight calls for the path, and the leader's
// put is skipped atomically with that check (see flightGroup.finish),
// so an invalidation can never be undone by a stale late insert.
type responseCache struct {
	mu sync.Mutex
	c  *lru.Cache[string, *capturedResponse]
}

// newResponseCache creates a cache holding at most max responses
// (max <= 0 means 1024).
func newResponseCache(max int) *responseCache {
	if max <= 0 {
		max = 1024
	}
	return &responseCache{c: lru.New[string, *capturedResponse](max)}
}

// get returns the cached response for key, refreshing recency.
func (c *responseCache) get(key string) (*capturedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Get(key)
}

// put stores a response, evicting the least recently used entry when
// full. The capture must not be mutated after insertion.
func (c *responseCache) put(key string, resp *capturedResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Add(key, resp)
}

// invalidate drops key (a no-op when absent).
func (c *responseCache) invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Remove(key)
}

// len reports the number of cached responses (diagnostic).
func (c *responseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Len()
}
