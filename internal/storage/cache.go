package storage

import (
	"sort"
	"sync"
	"time"

	"hdmaps/internal/lru"
)

// TileCache keeps last-known-good tile payloads on the vehicle so the
// map stack can keep working — explicitly flagged as degraded — when
// the distribution server is unreachable. It is a bounded LRU keyed by
// TileKey and safe for concurrent use.
type TileCache struct {
	mu    sync.Mutex
	tiles *lru.Cache[TileKey, cacheEntry]
}

type cacheEntry struct {
	data     []byte
	storedAt time.Time
}

// NewTileCache creates a cache holding at most max tiles (<=0 means
// 1024).
func NewTileCache(max int) *TileCache {
	if max <= 0 {
		max = 1024
	}
	return &TileCache{tiles: lru.New[TileKey, cacheEntry](max)}
}

// Put stores (a copy of) a tile payload as the last-known-good version
// for its key, evicting the least recently used entry when full.
func (c *TileCache) Put(key TileKey, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tiles.Add(key, cacheEntry{data: cp, storedAt: time.Now()})
}

// Get returns a copy of the cached payload, when it was stored, and
// whether it was present. A hit refreshes recency.
func (c *TileCache) Get(key TileKey) ([]byte, time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tiles.Get(key)
	if !ok {
		return nil, time.Time{}, false
	}
	cp := make([]byte, len(e.data))
	copy(cp, e.data)
	return cp, e.storedAt, true
}

// Keys lists cached tiles of a layer in Morton order — the offline
// fallback for region listing when the server is down.
func (c *TileCache) Keys(layer string) []TileKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []TileKey
	c.tiles.Walk(func(k TileKey, _ cacheEntry) {
		if k.Layer == layer {
			out = append(out, k)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Morton() < out[j].Morton() })
	return out
}

// Len reports how many tiles are cached.
func (c *TileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tiles.Len()
}
