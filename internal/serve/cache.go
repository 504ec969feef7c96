package serve

import "sync"

// respCache is the snapshot-keyed response cache: a rendered 200 body is
// valid exactly as long as the view epoch (the view's Seq) it was rendered
// at, so a herd of dashboard clients costs one render per epoch, not one
// per request. Entries remember their epoch; a lookup at any other epoch
// misses and the stale entry is overwritten by the re-render. The map is
// capped — when a flood of distinct query strings fills it, it is reset
// wholesale rather than grown (the next epoch would orphan every entry
// anyway).
type respCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]cacheEntry
}

type cacheEntry struct {
	epoch uint64
	body  []byte
	code  int
}

// defaultCacheEntries bounds the response cache: enough for every
// endpoint × a healthy population of query variants, small enough that
// a querystring flood cannot balloon the heap.
const defaultCacheEntries = 1024

func newRespCache(max int) *respCache {
	if max <= 0 {
		max = defaultCacheEntries
	}
	return &respCache{max: max, entries: make(map[string]cacheEntry)}
}

// get returns the cached body for key if it was rendered at epoch.
func (c *respCache) get(key string, epoch uint64) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.epoch != epoch {
		return cacheEntry{}, false
	}
	return e, true
}

// put stores a rendered body for key at epoch. The body must not be
// mutated after handoff (it is served to concurrent readers verbatim).
func (c *respCache) put(key string, epoch uint64, code int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; !exists && len(c.entries) >= c.max {
		c.entries = make(map[string]cacheEntry)
	}
	c.entries[key] = cacheEntry{epoch: epoch, body: body, code: code}
}
