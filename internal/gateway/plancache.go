package gateway

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/explain"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
)

// CachedPlan is one plan-cache entry: a query template identified by its
// fingerprint, the routing decision the gateway's policy made when the
// template was first planned, and the template's plans — per target it has
// served (a shard, or -1 for the scatter), the engines planned there, each
// built on the first statement that reached that target. A plan executes
// every other statement of the template whose literals hold its ties, with
// those literals bound to the slots of stmt (see Gateway.process).
type CachedPlan struct {
	Fingerprint string
	Pair        plan.Pair
	TPTime      time.Duration // the template's modeled times
	APTime      time.Duration
	Route       plan.Engine

	// stmt is the parsed statement the entry was planned from, kept so
	// AST-level routing policies (RulePolicy) can inspect query shape; its
	// Slots are what a statement's literals bind to.
	stmt *sqlparser.Select
	// dist is the template's routing analysis on a fleet (nil on one
	// shard): the slots that pin its partitioned tables.
	dist *optimizer.DistDecision

	mu    sync.Mutex
	plans map[int][2]*optimizer.PhysPlan // by target, then plan.Engine

	// Retrieval is the explanation service's retrieval for the template's
	// pair (see explainsvc), kept on the entry so it is bounded, evicted and
	// invalidated with the plan. The gateway never reads it.
	Retrieval atomic.Pointer[explain.Retrieval]
}

// planFor returns the entry's plan for eng on target, nil until one is
// planned.
func (e *CachedPlan) planFor(target int, eng plan.Engine) *optimizer.PhysPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.plans[target][eng]
}

// keep retains phys as the entry's plan for eng on target, unless a
// concurrent serve kept one first.
func (e *CachedPlan) keep(target int, eng plan.Engine, phys *optimizer.PhysPlan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plans == nil {
		e.plans = make(map[int][2]*optimizer.PhysPlan, 1)
	}
	ps := e.plans[target]
	if ps[eng] == nil {
		ps[eng] = phys
		e.plans[target] = ps
	}
}

// PlanCache is a sharded LRU cache of CachedPlan entries keyed by query
// fingerprint. Sharding keeps lock contention off the serving hot path:
// each shard has its own mutex, hash map and recency list.
type PlanCache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used; values are *CachedPlan
}

// NewPlanCache builds a cache with the given total capacity spread over
// shards rounded up to a power of two. capacity <= 0 disables the cache:
// every Get misses and Put is a no-op (the plan-per-query baseline).
func NewPlanCache(shards, capacity int) *PlanCache {
	if capacity <= 0 {
		return &PlanCache{}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &PlanCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: perShard, m: make(map[string]*list.Element), lru: list.New()}
	}
	return c
}

// Get returns the entry for the fingerprint, promoting it to most recently
// used.
func (c *PlanCache) Get(fp string) (*CachedPlan, bool) {
	if len(c.shards) == 0 {
		return nil, false
	}
	s := &c.shards[fnv1a(fp)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[fp]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*CachedPlan), true
}

// Put inserts or replaces the entry for e.Fingerprint, evicting the least
// recently used entry of its shard when the shard is full.
func (c *PlanCache) Put(e *CachedPlan) {
	if len(c.shards) == 0 {
		return
	}
	s := &c.shards[fnv1a(e.Fingerprint)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[e.Fingerprint]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.m, oldest.Value.(*CachedPlan).Fingerprint)
	}
	s.m[e.Fingerprint] = s.lru.PushFront(e)
}

// Clear drops every cached entry — plan invalidation after DDL, when
// cached plans no longer reflect the physical schema.
func (c *PlanCache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries across all shards.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Enabled reports whether the cache was built with positive capacity.
func (c *PlanCache) Enabled() bool { return len(c.shards) > 0 }

// fnv1a is the 64-bit FNV-1a hash, used to pick a shard.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
