package jobs

import (
	"container/list"
	"fmt"
	"sync"

	"sidr/internal/core"
	"sidr/internal/metrics"
)

// planCache is an LRU of derived single-input plans. SIDR routing is a
// pure function of (query, engine, reducers, split granularity, skew
// bound, index contents) — §3's precomputability — so identical
// requests, even against different datasets of the same shape, reuse
// the splits, partition+ keyblocks and dependency graph instead of
// re-deriving them. A plan is read-only once derived, so concurrent jobs
// run the same *core.Plan.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element

	hits, misses, evictions *metrics.Counter
	size                    *metrics.Gauge
}

type planEntry struct {
	key  string
	plan *core.Plan
}

func newPlanCache(capacity int, reg *metrics.Registry) *planCache {
	return &planCache{
		cap:       capacity,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter("sidrd_plan_cache_hits_total"),
		misses:    reg.Counter("sidrd_plan_cache_misses_total"),
		evictions: reg.Counter("sidrd_plan_cache_evictions_total"),
		size:      reg.Gauge("sidrd_plan_cache_size"),
	}
}

// planKey canonicalises the plan-determining inputs. An index-pruned
// plan is additionally a function of the index contents, so the index
// fingerprint is mixed in: without it, re-registering a dataset with
// different data (same shape, same query) would serve a stale pruned
// split set from the cache.
func planKey(query string, engine core.Engine, opts core.Options) string {
	var fp uint32
	if opts.Index != nil {
		fp = opts.Index.Fingerprint()
	}
	return fmt.Sprintf("%s|%d|%d|%d|%d|%08x", query, engine, opts.Reducers, opts.SplitPoints, opts.MaxSkew, fp)
}

// get returns the cached plan and bumps its recency, counting the hit or
// miss.
func (c *planCache) get(key string) (*core.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*planEntry).plan, true
}

// put inserts a plan, evicting the least recently used entries while
// over capacity.
func (c *planCache) put(key string, plan *core.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*planEntry).plan = plan
		return
	}
	c.items[key] = c.ll.PushFront(&planEntry{key: key, plan: plan})
	for c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*planEntry).key)
		c.evictions.Inc()
	}
	c.size.Set(int64(c.ll.Len()))
}
