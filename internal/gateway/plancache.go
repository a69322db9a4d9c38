package gateway

import (
	"container/list"
	"sync"
	"time"

	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
)

// maxBindsPerTemplate bounds the bound-plan variants one template entry
// retains (hot literal vectors); beyond it the oldest binding is dropped.
const maxBindsPerTemplate = 32

// BoundPlan holds executable plans for one (template, literal-vector)
// combination. On the entry's first binding both engines are planned (the
// routing policy needs the pair); later bindings plan only the routed
// engine, so the other side may be nil with a zero estimate. Shard is the
// shard the plans were built on — their operators read that shard's
// storage, and the literal vector fixes the owner, so a retained plan is
// only ever executed there. A scatter (a literal vector no shard owns) is
// Shard -1 with only AP set, a plan over every shard with no estimate.
type BoundPlan struct {
	ParamKey string
	Shard    int
	TP, AP   *optimizer.PhysPlan
	TPTime   time.Duration
	APTime   time.Duration
}

// CachedPlan is one plan-cache entry: a query template identified by its
// fingerprint, the routing decision the gateway's policy made when the
// template was first planned, and a small cache of bound plans keyed by
// the literal vector (the parent/child-cursor scheme of classic plan
// caches). A lookup whose parameters match a retained binding re-executes
// the cached plan directly; a lookup with new parameters reuses only the
// template-level routing decision and re-plans the chosen engine (see
// Gateway.process).
type CachedPlan struct {
	Fingerprint string
	Pair        plan.Pair
	TPTime      time.Duration // estimates from the first binding
	APTime      time.Duration
	Route       plan.Engine

	// stmt is the parsed statement the entry was planned from, kept so
	// AST-level routing policies (RulePolicy) can inspect query shape.
	stmt *sqlparser.Select

	mu    sync.Mutex
	binds map[string]*BoundPlan
	order []string // insertion order for FIFO bind eviction
}

// Bind returns the bound plans for the literal vector, if retained.
func (e *CachedPlan) Bind(paramKey string) (*BoundPlan, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bp, ok := e.binds[paramKey]
	return bp, ok
}

// AddBind retains a newly planned literal vector, evicting the oldest
// binding once the per-template budget is exceeded.
func (e *CachedPlan) AddBind(bp *BoundPlan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.binds == nil {
		e.binds = make(map[string]*BoundPlan, 4)
	}
	if _, exists := e.binds[bp.ParamKey]; !exists {
		if len(e.order) >= maxBindsPerTemplate {
			delete(e.binds, e.order[0])
			e.order = e.order[1:]
		}
		e.order = append(e.order, bp.ParamKey)
	}
	e.binds[bp.ParamKey] = bp
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
