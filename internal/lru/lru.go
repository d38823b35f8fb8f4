// Package lru is the one bounded least-recently-used map behind the
// repository's caches: the vehicle's last-known-good tile cache, the
// server's hot-tile response cache and the per-client rate-limit
// buckets. Get, Add and Remove are O(1): a map finds the entry and a
// recency list orders it.
package lru

import "container/list"

// Cache holds at most a fixed number of entries, evicting the least
// recently used one to make room. It is not safe for concurrent use:
// each owner serializes access under its own lock, which is also what
// lets an owner make a get-or-add sequence atomic.
type Cache[K comparable, V any] struct {
	max int
	ll  *list.List // front = most recent; values are *entry[K, V]
	m   map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New creates a cache holding at most max entries (at least one).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	return &Cache[K, V]{max: max, ll: list.New(), m: make(map[K]*list.Element)}
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*entry[K, V]).val, true
}

// Add stores val under key as the most recently used entry, replacing
// any previous value. Adding a new key to a full cache first evicts
// the least recently used entry.
func (c *Cache[K, V]) Add(key K, val V) {
	if e, ok := c.m[key]; ok {
		e.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*entry[K, V]).key)
	}
	c.m[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
}

// Remove drops key (a no-op when absent).
func (c *Cache[K, V]) Remove(key K) {
	if e, ok := c.m[key]; ok {
		c.ll.Remove(e)
		delete(c.m, key)
	}
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Walk calls fn for every entry from the least to the most recently
// used, without changing recency. fn must not modify the cache.
func (c *Cache[K, V]) Walk(fn func(key K, val V)) {
	for e := c.ll.Back(); e != nil; e = e.Prev() {
		ent := e.Value.(*entry[K, V])
		fn(ent.key, ent.val)
	}
}
