package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestTileCache pins the vehicle cache's contract: least-recently-used
// eviction where Get counts as a use, in-place replacement, copy
// isolation in both directions, Morton-ordered per-layer Keys, and a
// hard size cap.
func TestTileCache(t *testing.T) {
	k := func(layer string, x, y int32) TileKey { return TileKey{Layer: layer, TX: x, TY: y} }
	get := func(c *TileCache, key TileKey) string {
		t.Helper()
		data, _, ok := c.Get(key)
		if !ok {
			return ""
		}
		return string(data)
	}

	t.Run("get refreshes recency", func(t *testing.T) {
		c := NewTileCache(2)
		a, b, d := k("base", 0, 0), k("base", 1, 0), k("base", 2, 0)
		c.Put(a, []byte("A"))
		c.Put(b, []byte("B"))
		if get(c, a) != "A" { // a is now the most recent
			t.Fatal("a missing")
		}
		c.Put(d, []byte("D")) // evicts b, the least recent
		if get(c, b) != "" {
			t.Fatal("least recently used b survived eviction")
		}
		if get(c, a) != "A" || get(c, d) != "D" {
			t.Fatal("recent entries evicted")
		}
	})

	t.Run("put replaces without evicting", func(t *testing.T) {
		c := NewTileCache(2)
		a, b := k("base", 0, 0), k("base", 1, 0)
		c.Put(a, []byte("A1"))
		c.Put(b, []byte("B"))
		c.Put(a, []byte("A2"))
		if c.Len() != 2 || get(c, a) != "A2" || get(c, b) != "B" {
			t.Fatalf("replace: len %d a=%q b=%q", c.Len(), get(c, a), get(c, b))
		}
		// The replacing Put also refreshed a, so b is evicted next.
		c.Put(a, []byte("A3"))
		c.Put(k("base", 2, 0), []byte("C"))
		if get(c, b) != "" || get(c, a) != "A3" {
			t.Fatal("replacing put did not refresh recency")
		}
	})

	t.Run("copies are isolated", func(t *testing.T) {
		c := NewTileCache(4)
		a := k("base", 0, 0)
		in := []byte("tile")
		c.Put(a, in)
		in[0] = 'X'
		out, storedAt, ok := c.Get(a)
		if !ok || string(out) != "tile" || storedAt.IsZero() {
			t.Fatalf("stored slice aliased the caller's: %q ok=%v at=%v", out, ok, storedAt)
		}
		out[0] = 'Y'
		if again := get(c, a); again != "tile" {
			t.Fatalf("returned slice aliased the cache's: %q", again)
		}
	})

	t.Run("keys filter by layer in Morton order", func(t *testing.T) {
		c := NewTileCache(16)
		want := []TileKey{k("base", 0, 0), k("base", 1, 0), k("base", 0, 1), k("base", 1, 1), k("base", 2, 0)}
		for _, i := range []int{4, 2, 0, 3, 1} { // insert out of order
			c.Put(want[i], []byte{byte(i)})
			c.Put(k("speed", want[i].TX, want[i].TY), []byte{byte(i)})
		}
		got := c.Keys("base")
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Keys(base) = %v, want %v", got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Morton() >= got[i].Morton() {
				t.Fatalf("Keys not in Morton order at %d: %v", i, got)
			}
		}
		if n := len(c.Keys("absent")); n != 0 {
			t.Fatalf("Keys(absent) = %d entries", n)
		}
	})

	t.Run("len never exceeds the cap", func(t *testing.T) {
		c := NewTileCache(3)
		for i := int32(0); i < 50; i++ {
			c.Put(k("base", i, i), bytes.Repeat([]byte{1}, int(i)))
			if c.Len() > 3 {
				t.Fatalf("len %d after %d puts", c.Len(), i+1)
			}
		}
		if c.Len() != 3 {
			t.Fatalf("len = %d, want 3", c.Len())
		}
		def := NewTileCache(0)
		for i := int32(0); i <= 1024; i++ {
			def.Put(k("base", i, 0), nil)
		}
		if def.Len() != 1024 {
			t.Fatalf("default cap holds %d, want 1024", def.Len())
		}
	})

	t.Run("concurrent use", func(t *testing.T) {
		c := NewTileCache(8)
		var wg sync.WaitGroup
		for g := int32(0); g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int32(0); i < 200; i++ {
					key := k("base", (g*7+i)%12, 0)
					c.Put(key, []byte{byte(i)})
					c.Get(key)
					c.Keys("base")
					if n := c.Len(); n > 8 {
						t.Errorf("len %d over cap", n)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
