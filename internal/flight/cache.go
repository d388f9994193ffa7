package flight

import (
	"container/list"
	"context"
	"strings"
	"sync/atomic"
)

// Outcome says how a Cache.Get was served.
type Outcome int

const (
	// Hit: the value was already published; nothing was built or awaited.
	Hit Outcome = iota
	// Built: this caller started the build (the miss).
	Built
	// Joined: this caller waited on a build another caller started.
	Joined
)

// Cache memoizes build results by key on top of Group's coalescing: look
// up, join or start the build, and publish its result — all under the one
// mutex that also guards the in-flight calls. A successful result is
// published before its call is forgotten, so every caller that misses the
// entries finds the call and joins it: exactly one build runs per key until
// the entry is evicted, replaced or purged. Failed builds are not cached,
// so the next Get retries.
//
// A cache may be bounded (NewLRU); it then evicts the least recently used
// entry beyond capacity, preferring victims its keep func does not protect.
type Cache[V any] struct {
	g         Group[V] // g.mu also guards every field below
	cap       int      // 0 = unbounded
	keep      func(V) bool
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	evictions atomic.Uint64
}

type entry[V any] struct {
	key string
	val V
}

// NewCache builds an unbounded cache.
func NewCache[V any]() *Cache[V] {
	return &Cache[V]{
		g:       Group[V]{calls: map[string]*call[V]{}},
		ll:      list.New(),
		entries: map[string]*list.Element{},
	}
}

// NewLRU builds a cache of at most capacity entries (clamped to at least
// one: a smaller bound would evict every insert). Eviction walks from the
// LRU tail for the first entry keep does not protect; only when keep
// protects every entry does the coldest one go. keep may be nil; it runs
// under the cache's lock, so it must be quick and must not use the cache.
func NewLRU[V any](capacity int, keep func(V) bool) *Cache[V] {
	c := NewCache[V]()
	c.cap, c.keep = max(capacity, 1), keep
	return c
}

// Get returns key's value, building it with build on a miss. Concurrent
// misses coalesce into one build under Group's contract: each caller waits
// under its own ctx, and the build's context is cancelled only once every
// waiter has detached.
func (c *Cache[V]) Get(ctx context.Context, key string, build func(context.Context) (V, error)) (V, Outcome, error) {
	c.g.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.g.mu.Unlock()
		return v, Hit, nil
	}
	call, joined := c.g.joinLocked(key, build, c.publishLocked)
	c.g.mu.Unlock()
	v, err := c.g.wait(ctx, call)
	if joined {
		return v, Joined, err
	}
	return v, Built, err
}

// publishLocked installs a finished build. An entry that appeared while the
// build ran (a Put) is newer and stays.
func (c *Cache[V]) publishLocked(key string, v V) {
	if _, ok := c.entries[key]; !ok {
		c.insertLocked(key, v)
	}
}

// Put installs v under key, replacing any current value (copy-on-write:
// holders of the old value keep it; later lookups see v).
func (c *Cache[V]) Put(key string, v V) {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.insertLocked(key, v)
}

func (c *Cache[V]) insertLocked(key string, v V) {
	c.entries[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	for c.cap > 0 && c.ll.Len() > c.cap {
		victim := c.ll.Back()
		for el := victim; el != nil && c.keep != nil; el = el.Prev() {
			if !c.keep(el.Value.(*entry[V]).val) {
				victim = el
				break
			}
		}
		c.removeLocked(victim)
	}
}

func (c *Cache[V]) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.entries, el.Value.(*entry[V]).key)
	c.evictions.Add(1)
}

// Peek returns key's current value without building or touching recency.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Purge drops every entry whose key starts with prefix and returns how many
// went. Builds still in flight are unaffected and publish when done.
func (c *Cache[V]) Purge(prefix string) int {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	n := 0
	for key, el := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.removeLocked(el)
			n++
		}
	}
	return n
}

// Len returns the number of published entries.
func (c *Cache[V]) Len() int {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	return c.ll.Len()
}

// Evictions returns how many entries capacity eviction and Purge have
// dropped so far.
func (c *Cache[V]) Evictions() uint64 { return c.evictions.Load() }
