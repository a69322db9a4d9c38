package gateway

import (
	"fmt"
	"testing"

	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
)

func entry(fp string) *CachedPlan {
	return &CachedPlan{Fingerprint: fp, Route: plan.TP}
}

func TestPlanCacheHitAndPromote(t *testing.T) {
	c := NewPlanCache(1, 2)
	c.Put(entry("a"))
	c.Put(entry("b"))
	if _, ok := c.Get("a"); !ok { // promotes a to MRU
		t.Fatal("a missing")
	}
	c.Put(entry("c")) // evicts b, the LRU
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, fp := range []string{"a", "c"} {
		if _, ok := c.Get(fp); !ok {
			t.Errorf("%s should be cached", fp)
		}
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestPlanCacheReplace(t *testing.T) {
	c := NewPlanCache(1, 2)
	c.Put(entry("a"))
	e2 := entry("a")
	e2.Route = plan.AP
	c.Put(e2)
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 after replace", got)
	}
	got, ok := c.Get("a")
	if !ok || got.Route != plan.AP {
		t.Errorf("Get(a) = %+v, want replaced entry", got)
	}
}

// TestCachedPlanKeepsOnePlanPerTarget: a template keeps one plan per engine
// per target — a shard, or the scatter — and the first one kept stands:
// a concurrent serve that planned the same target again does not replace
// it, and a target never planned has none.
func TestCachedPlanKeepsOnePlanPerTarget(t *testing.T) {
	e := entry("a")
	first, second, scatter := &optimizer.PhysPlan{}, &optimizer.PhysPlan{}, &optimizer.PhysPlan{}
	e.keep(0, plan.TP, first)
	e.keep(0, plan.TP, second)
	e.keep(-1, plan.AP, scatter)
	for _, c := range []struct {
		target int
		eng    plan.Engine
		want   *optimizer.PhysPlan
	}{{0, plan.TP, first}, {0, plan.AP, nil}, {1, plan.TP, nil}, {-1, plan.AP, scatter}, {-1, plan.TP, nil}} {
		if got := e.planFor(c.target, c.eng); got != c.want {
			t.Errorf("planFor(%d, %v) = %p, want %p", c.target, c.eng, got, c.want)
		}
	}
}

func TestPlanCacheSharded(t *testing.T) {
	// Generous capacity: per-shard LRUs must not evict while the total
	// entry count is far below the budget, even with uneven hashing.
	c := NewPlanCache(4, 256)
	if len(c.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(c.shards))
	}
	for i := 0; i < 64; i++ {
		c.Put(entry(fmt.Sprintf("q%d", i)))
	}
	if got := c.Len(); got != 64 {
		t.Errorf("Len = %d, want 64", got)
	}
	for i := 0; i < 64; i++ {
		if _, ok := c.Get(fmt.Sprintf("q%d", i)); !ok {
			t.Errorf("q%d missing (premature eviction within a shard)", i)
		}
	}
}

func TestPlanCacheShardRounding(t *testing.T) {
	c := NewPlanCache(3, 30) // 3 shards rounds up to 4
	if len(c.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(c.shards))
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	c := NewPlanCache(8, 0)
	if c.Enabled() {
		t.Fatal("capacity 0 should disable the cache")
	}
	c.Put(entry("a"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache must always miss")
	}
	if got := c.Len(); got != 0 {
		t.Errorf("Len = %d, want 0", got)
	}
}
