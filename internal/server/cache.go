package server

import (
	"sync"

	"ppm/internal/jobspec"
)

// resultCache is the content-addressed result store: canonical spec
// hash -> flattened result. Two specs with the same hash are the same
// computation (the canonical encoding covers everything that can change
// the output, and the runtime is deterministic), so a hit returns a
// bit-identical result without running anything. Entries are never
// evicted: a result is a few KB and a server's working set of distinct
// specs is small; an operator who needs a bound restarts the server.
type resultCache struct {
	mu     sync.Mutex
	m      map[string]*jobspec.Result
	hits   int64
	misses int64
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[string]*jobspec.Result)}
}

// get returns the cached result for hash, marked Cached, or nil, and
// counts the probe as a hit or a miss. Client lookups by hash probe
// through get; a submission's outcome is counted once at admission
// (count), and the dequeue-time re-check uses peek.
func (c *resultCache) get(hash string) *jobspec.Result {
	r := c.peek(hash)
	c.count(r != nil)
	return r
}

// count records one counted probe's outcome.
func (c *resultCache) count(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// peek is get without counting. The returned value is a shallow copy:
// the Series backing arrays are shared but immutable by convention
// (nothing writes a stored result).
func (c *resultCache) peek(hash string) *jobspec.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[hash]
	if !ok {
		return nil
	}
	out := *r
	out.Cached = true
	return &out
}

// put stores a fresh result under its hash. First write wins: a
// concurrent duplicate run produced a bit-identical result anyway.
func (c *resultCache) put(r *jobspec.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[r.Hash]; !ok {
		c.m[r.Hash] = r
	}
}

// stats returns the hit/miss counters and entry count.
func (c *resultCache) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}
