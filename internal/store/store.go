// Package store provides the lock-striped object maps that back every
// Amoeba service's hot path. A server's object table is keyed by the
// 24-bit object number of §2.3; with a single mutex, two clients
// operating on unrelated objects serialize on the map even though the
// objects themselves are independent. Map stripes the key space over a
// power-of-two number of shards, each with its own RWMutex, so
// operations on different objects almost never contend — the property
// the paper's "entire campus of workstations" load profile demands.
//
// Map stores only the index; per-object state keeps its own lock (the
// usual pattern: look the object up under the shard lock, then operate
// under the object's lock). Nothing in this package ever holds a shard
// lock across a callback except Range, which documents it.
package store

import (
	"runtime"
	"sync"
)

// DefaultShards returns the shard count New uses for n <= 0: the
// smallest power of two ≥ 4×GOMAXPROCS, capped at 256. More shards than
// that stop paying for themselves on a 24-bit key space.
func DefaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n > 256 {
		n = 256
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Map is a lock-striped map from 24-bit object numbers to V. The zero
// value is not usable; call New. All methods are safe for concurrent
// use.
type Map[V any] struct {
	shards []shard[V]
	mask   uint32
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[uint32]V
	// Padding out to a cache line would be the next step; the map
	// header and mutex already keep shards on separate lines in
	// practice for the shard counts DefaultShards picks.
}

// New builds a map with the given shard count, rounded up to a power of
// two; n <= 0 selects DefaultShards().
func New[V any](n int) *Map[V] {
	if n <= 0 {
		n = DefaultShards()
	}
	n = ceilPow2(n)
	m := &Map[V]{shards: make([]shard[V], n), mask: uint32(n - 1)}
	for i := range m.shards {
		m.shards[i].m = make(map[uint32]V)
	}
	return m
}

// shardFor mixes the key before masking: object numbers are allocated
// sequentially, and taking low bits directly would still spread them,
// but mixing keeps the distribution flat for callers with structured
// keys (block numbers, striped allocators).
func (m *Map[V]) shardFor(key uint32) *shard[V] {
	h := key
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return &m.shards[h&m.mask]
}

// Get returns the value for key and whether it is present.
func (m *Map[V]) Get(key uint32) (V, bool) {
	s := m.shardFor(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// Put stores value under key, replacing any previous value.
func (m *Map[V]) Put(key uint32, value V) {
	s := m.shardFor(key)
	s.mu.Lock()
	s.m[key] = value
	s.mu.Unlock()
}

// PutIfAbsent stores value under key only if the key is not present,
// reporting whether it stored. Allocators use it to claim an object
// number atomically.
func (m *Map[V]) PutIfAbsent(key uint32, value V) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.m[key]; live {
		return false
	}
	s.m[key] = value
	return true
}

// Replace stores value under key only if the key is present, reporting
// whether it stored. Re-keying an object (§2.3 revocation) uses it so a
// concurrent destroy cannot be resurrected by the new value.
func (m *Map[V]) Replace(key uint32, value V) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.m[key]; !live {
		return false
	}
	s.m[key] = value
	return true
}

// CompareAndSwap stores value under key only if the key currently
// holds old, reporting whether it stored. A cache kept beside the value
// (the capability table's validation memo) uses it so a write computed
// from a value never lands on that value's replacement.
func CompareAndSwap[V comparable](m *Map[V], key uint32, old, value V) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, live := s.m[key]; !live || cur != old {
		return false
	}
	s.m[key] = value
	return true
}

// Delete removes key, returning the previous value and whether it was
// present.
func (m *Map[V]) Delete(key uint32) (V, bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	v, ok := s.m[key]
	if ok {
		delete(s.m, key)
	}
	s.mu.Unlock()
	return v, ok
}

// Len returns the number of stored keys. It locks each shard in turn,
// so the count is a consistent-per-shard snapshot, not a global one.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. The shard
// holding the entry is read-locked during the call: fn must not call
// back into the Map for keys that may live in the same shard (Get of
// an unrelated key is fine in practice but Put/Delete will deadlock).
// Entries added or removed concurrently in unvisited shards may or may
// not be seen.
func (m *Map[V]) Range(fn func(key uint32, value V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// Keys returns the stored keys (unordered), snapshotted shard by shard.
func (m *Map[V]) Keys() []uint32 {
	out := make([]uint32, 0, m.Len())
	m.Range(func(k uint32, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
