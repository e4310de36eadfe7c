package serve

import (
	"container/list"
	"sync"
	"time"
)

// cacheEntry is one materialized view result: the rendered XML bytes
// plus the evaluation facts the server reports in response headers and
// the provenance the background refresher needs to keep the entry warm
// (which view and parameters produced it, under which data-version
// stamp, at which per-table versions).
type cacheEntry struct {
	body    []byte
	depth   int
	evalSec float64
	created time.Time

	v      *View // the registration that filled it
	params map[string]string
	// stamp is the per-source data-version stamp the entry was
	// materialized under: the body equals a from-scratch evaluation at
	// exactly these versions.
	stamp string
	// tableVers records the per-table versions at the stamp, the
	// baseline ChangesSince windows are judged from.
	tableVers map[string]map[string]uint64

	// path marks a fragment entry: the canonical path expression whose
	// matches the body holds ("" for full documents). The refresher
	// judges fragment entries against the path-filtered dependency map.
	path string
	// matches is the number of elements the path selected.
	matches int
}

// restamped returns a copy of the entry carrying a newer stamp: the
// judge proved the body unchanged, only the provenance moves.
func (e *cacheEntry) restamped(stamp string, tableVers map[string]map[string]uint64) *cacheEntry {
	out := *e
	out.stamp = stamp
	out.tableVers = tableVers
	return &out
}

// lru is a fixed-capacity least-recently-used cache from targets' cache
// keys (view + canonical params [+ path]) to rendered results, one entry
// per target. The key carries no stamp: a caller hits only an entry whose
// stamp equals the one it read, so a source mutation makes every entry
// that reads it stale without a scan or any coordination with the
// mutating source, and the next fill or refresh replaces it in place.
type lru struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *lruItem
	items    map[string]*list.Element

	onEvict func() // metrics hook, called outside hot-path decisions but under mu
}

type lruItem struct {
	key   string
	entry *cacheEntry
}

// newLRU builds a cache holding up to capacity entries; capacity <= 0
// disables caching (every Get misses, Add drops).
func newLRU(capacity int) *lru {
	return &lru{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the entry under key, refreshing its recency.
func (c *lru) Get(key string) (*cacheEntry, bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// Add inserts (or refreshes) an entry, evicting the least recently used
// entries beyond capacity.
func (c *lru) Add(key string, e *cacheEntry) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).entry = e
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruItem{key: key, entry: e})
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*lruItem).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// Len returns the number of cached entries.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Snapshot returns the current (key, entry) pairs without touching
// recency — the refresher's working set. Entries are shared, not
// copied; they are immutable once cached.
func (c *lru) Snapshot() []lruItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruItem, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		it := el.Value.(*lruItem)
		out = append(out, lruItem{key: it.key, entry: it.entry})
	}
	return out
}

// Swap replaces the entry under key with e only if it is still old, and
// reports whether it did; a nil e removes it. The refresher restamps and
// drops entries this way, so it never overwrites a fill that landed
// after it read old. Recency is left as it was: a refresh is not a use.
func (c *lru) Swap(key string, old, e *cacheEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*lruItem).entry != old {
		return false
	}
	if e == nil {
		c.order.Remove(el)
		delete(c.items, key)
	} else {
		el.Value.(*lruItem).entry = e
	}
	return true
}
