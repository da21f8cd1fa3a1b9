// Package lru is a small generic least-recently-used cache with
// deterministic eviction: when the cache is at capacity, Put evicts
// exactly the entry that was touched longest ago. It is deliberately
// not thread-safe — its caller (the router's interpret memo) already
// serializes access under its own mutex, and pushing locking down here
// would just double the lock traffic.
package lru

import "container/list"

// entry is one key/value pair on the recency list.
type entry[K comparable, V any] struct {
	key K
	val V
}

// Cache is an LRU cache with a fixed capacity. The zero value is not
// usable; call New.
type Cache[K comparable, V any] struct {
	max   int
	ll    *list.List // front = most recently used
	index map[K]*list.Element
}

// New returns an empty cache holding at most max entries; max must be
// positive.
func New[K comparable, V any](max int) *Cache[K, V] {
	if max <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Cache[K, V]{max: max, ll: list.New(), index: make(map[K]*list.Element)}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Peek returns the value for key without touching recency.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if el, ok := c.index[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key, marking it most recently used. If the
// insert pushed the cache past capacity, the least recently used entry
// is evicted and returned with evicted=true.
func (c *Cache[K, V]) Put(key K, val V) (evictedKey K, evicted bool) {
	if el, ok := c.index[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return evictedKey, false
	}
	c.index[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() <= c.max {
		return evictedKey, false
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	k := oldest.Value.(*entry[K, V]).key
	delete(c.index, k)
	return k, true
}

// Delete removes key if present.
func (c *Cache[K, V]) Delete(key K) {
	if el, ok := c.index[key]; ok {
		c.ll.Remove(el)
		delete(c.index, key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Clear drops every entry.
func (c *Cache[K, V]) Clear() {
	c.ll.Init()
	clear(c.index)
}

// Keys returns the cached keys from most to least recently used —
// the eviction order reversed. Intended for tests and introspection.
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}
