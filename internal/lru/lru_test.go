package lru

import (
	"fmt"
	"testing"
)

// order lists the cache's keys from least to most recently used.
func order(c *Cache[string, int]) string {
	var keys []string
	c.Walk(func(k string, _ int) { keys = append(keys, k) })
	return fmt.Sprint(keys)
}

func TestCache(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	if got := order(c); got != "[a b c]" {
		t.Fatalf("walk = %s, want oldest first", got)
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if got := order(c); got != "[b c a]" {
		t.Fatalf("Get did not refresh recency: %s", got)
	}
	c.Add("d", 4) // full: evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used b survived eviction")
	}
	if got := order(c); got != "[c a d]" {
		t.Fatalf("after eviction: %s", got)
	}
	c.Add("c", 30) // replace: refreshes, evicts nothing
	if v, _ := c.Get("c"); v != 30 || c.Len() != 3 {
		t.Fatalf("replace: c=%d len=%d", v, c.Len())
	}
	if got := order(c); got != "[a d c]" {
		t.Fatalf("after replace: %s", got)
	}
	c.Remove("d")
	c.Remove("d") // absent: a no-op
	if _, ok := c.Get("d"); ok || c.Len() != 2 {
		t.Fatalf("removed key still present, len %d", c.Len())
	}
}

func TestCacheBounded(t *testing.T) {
	for _, max := range []int{-1, 0, 1, 8} {
		c := New[int, int](max)
		want := max
		if want < 1 {
			want = 1
		}
		for i := 0; i < 100; i++ {
			c.Add(i, i)
			if c.Len() > want {
				t.Fatalf("max %d: len %d after %d adds", max, c.Len(), i+1)
			}
		}
		if c.Len() != want {
			t.Fatalf("max %d: len %d, want %d", max, c.Len(), want)
		}
		// The survivors are the newest adds.
		if _, ok := c.Get(99); !ok {
			t.Fatalf("max %d: newest entry missing", max)
		}
	}
}
