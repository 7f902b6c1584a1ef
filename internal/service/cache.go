package service

import (
	"container/list"
	"context"
	"sync"
)

// resultCache is the cross-request compile-result store: an LRU map
// from the (module-hash, config-hash) key to the encoded compile
// response, so resubmitting an identical (program, configuration)
// pair is served without running the pipeline again. It is shared by
// every request and safe for concurrent use.
//
// Misses are single-flighted: the first request for a key becomes the
// leader and runs the pipeline; concurrent requests for the same key
// wait for the leader's response instead of compiling the identical
// program again (no thundering herd between a miss and its store). A
// leader that fails wakes its followers empty-handed and they compete
// to become the next leader, so a transient failure never wedges a key.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight

	hits, misses int64
}

// flight is one in-progress compilation of a cache key. val is written
// exactly once, before done is closed (the close is the happens-before
// edge); nil val means the leader failed.
type flight struct {
	done chan struct{}
	val  *CompileResponse
}

type cacheItem struct {
	key string
	val *CompileResponse
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 128
	}
	return &resultCache{max: max, order: list.New(), entries: map[string]*list.Element{}, flights: map[string]*flight{}}
}

// store inserts a response, evicting the least recently used entry
// when the cache is full; the caller holds c.mu.
func (c *resultCache) store(key string, v *CompileResponse) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheItem).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheItem{key: key, val: v})
	for len(c.entries) > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheItem).key)
	}
}

// begin is the single-flight entry point. It returns exactly one of:
// a cached response (hit), a flight to wait on (another request is
// already compiling this key), or leader=true — the caller owns the
// compilation and must call complete exactly once.
func (c *resultCache) begin(key string) (cached *CompileResponse, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*cacheItem).val, nil, false
	}
	if fl, ok := c.flights[key]; ok {
		return nil, fl, false
	}
	c.misses++
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return nil, fl, true
}

// wait blocks until the flight's leader completes or ctx is cancelled.
// ok=false means no response materialized (leader failed, or the wait
// was cancelled); the caller re-enters begin to compete for leadership.
func (c *resultCache) wait(ctx context.Context, fl *flight) (*CompileResponse, bool) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, false
	}
	if fl.val == nil {
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return fl.val, true
}

// complete finishes a flight: stores the response (nil = leader
// failed, nothing cached) and wakes every waiter.
func (c *resultCache) complete(key string, fl *flight, v *CompileResponse) {
	c.mu.Lock()
	if c.flights[key] == fl {
		delete(c.flights, key)
	}
	if v != nil {
		c.store(key, v)
	}
	c.mu.Unlock()
	fl.val = v
	close(fl.done)
}

// counters returns (hits, misses, live entries).
func (c *resultCache) counters() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
