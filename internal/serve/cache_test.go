package serve

import (
	"fmt"
	"sync"
	"testing"
)

func entry(s string) *cacheEntry { return &cacheEntry{body: []byte(s)} }

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	evicted := 0
	c := newLRU(2)
	c.onEvict = func() { evicted++ }

	c.Add("a", entry("A"))
	c.Add("b", entry("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now the oldest
		t.Fatal("a missing before capacity reached")
	}
	c.Add("c", entry("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if evicted != 1 || c.Len() != 2 {
		t.Fatalf("evicted=%d len=%d, want 1/2", evicted, c.Len())
	}
}

func TestLRURefreshReplacesEntry(t *testing.T) {
	c := newLRU(2)
	c.Add("a", entry("old"))
	c.Add("a", entry("new"))
	if c.Len() != 1 {
		t.Fatalf("len=%d after re-adding the same key, want 1", c.Len())
	}
	if e, _ := c.Get("a"); string(e.body) != "new" {
		t.Fatalf("entry=%q, want the refreshed value", e.body)
	}
}

// TestLRUSwap: Swap replaces or removes an entry only while it is still
// the one the caller read.
func TestLRUSwap(t *testing.T) {
	c := newLRU(2)
	old, filled, restamped := entry("old"), entry("filled"), entry("restamped")
	c.Add("a", old)
	c.Add("a", filled) // a fill lands after old was read
	if c.Swap("a", old, restamped) || c.Swap("a", old, nil) {
		t.Fatal("Swap replaced an entry that is no longer the one it was given")
	}
	if e, _ := c.Get("a"); e != filled {
		t.Fatalf("entry %q, want the fill that landed first", e.body)
	}
	if !c.Swap("a", filled, restamped) {
		t.Fatal("Swap refused the current entry")
	}
	if e, _ := c.Get("a"); e != restamped {
		t.Fatalf("entry %q, want the swapped-in one", e.body)
	}
	if !c.Swap("a", restamped, nil) || c.Len() != 0 {
		t.Fatalf("Swap to nil left %d entries, want 0", c.Len())
	}
	if c.Swap("b", nil, restamped) || c.Len() != 0 {
		t.Fatal("Swap installed an entry under an absent key")
	}
}

func TestLRUDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newLRU(capacity)
		c.Add("a", entry("A"))
		if _, ok := c.Get("a"); ok {
			t.Fatalf("capacity %d: cache stored an entry while disabled", capacity)
		}
		if c.Len() != 0 {
			t.Fatalf("capacity %d: len=%d, want 0", capacity, c.Len())
		}
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := newLRU(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				c.Add(k, entry(k))
				if e, ok := c.Get(k); ok && string(e.body) != k {
					t.Errorf("key %s returned body %q", k, e.body)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("len=%d exceeds capacity 8", c.Len())
	}
}
