package jobs

import (
	"container/list"
	"sync"
	"unsafe"

	"sidr"
	"sidr/internal/metrics"
	"sidr/internal/wire"
)

// resultCache is an LRU of completed query results, budgeted by the
// memory its entries keep alive (resultSize). SIDR's premise makes
// caching sound: a structural query's result is a pure
// function of {dataset contents, query, engine} — §3's precomputability
// taken to its endpoint — so the daemon may serve a finished result
// again instead of re-running the Map/shuffle/Reduce pipeline, as long
// as the key pins the dataset *contents*, not just its name. The fast
// key therefore embeds the dataset version (name + shape +
// structural-index fingerprint, see jobs.VersionProvider): new contents
// are a new version, so a stale hit is impossible by construction.
//
// Entries store the job's *sidr.Result pointer. Results are immutable
// once a job finishes, so a hit serves the exact object a previous run
// produced and the wire encoding is byte-identical to the original
// response — including the partial sequence a cached job's stream
// replays, which is the log the first client was streamed from.
//
// An entry also stores what it serves: the first hit that opens a stream
// encodes the result's events once (resultEntry.stream) and every later
// hit is sent those bytes. They count against the same budget from the
// moment they exist; a result nobody asks for twice never pays for them.
type resultCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recent
	items  map[string]*list.Element

	hits, misses, evictions, encodes *metrics.Counter
	gBytes, gEntries                 *metrics.Gauge
}

type resultEntry struct {
	key  string
	res  *sidr.Result
	size int64 // guarded by cache.mu

	cache      *resultCache
	encodeOnce sync.Once
	encoded    []wire.EncodedEvent
	encodeErr  error
}

// stream returns the entry's result as encoded stream events, encoding
// them on the first call — concurrent first callers wait for the one
// encoding — and charging their bytes to the cache's budget, which may
// evict least recently used entries, this one included. A caller keeps
// the events it was handed either way.
func (e *resultEntry) stream() ([]wire.EncodedEvent, error) {
	e.encodeOnce.Do(func() {
		e.cache.encodes.Inc()
		if e.encoded, e.encodeErr = wire.EncodeStream(e.res); e.encodeErr != nil {
			return
		}
		n := int64(cap(e.encoded)) * int64(unsafe.Sizeof(wire.EncodedEvent{}))
		for _, ev := range e.encoded {
			n += int64(cap(ev.Tail) + cap(ev.Deflated))
		}
		e.cache.grow(e, n)
	})
	return e.encoded, e.encodeErr
}

// newResultCache builds a cache with the given byte budget and registers
// its instruments.
func newResultCache(budget int64, reg *metrics.Registry) *resultCache {
	return &resultCache{
		budget:    budget,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter("sidrd_resultcache_hits_total"),
		misses:    reg.Counter("sidrd_resultcache_misses_total"),
		evictions: reg.Counter("sidrd_resultcache_evictions_total"),
		encodes:   reg.Counter("sidrd_resultcache_encodes_total"),
		gBytes:    reg.Gauge("sidrd_resultcache_bytes"),
		gEntries:  reg.Gauge("sidrd_resultcache_entries"),
	}
}

// resultSize is the memory an entry keeps alive, counted not encoded:
// the result and partial structs, the keyblock loads, and the rows of the
// assembled result and of the partial log — each a key and a value slice,
// 8 bytes per number and a slice header per row per side. Value storage a
// partial shares with the assembled rows is counted on both sides, so the
// figure errs high, never low; an empty result still has a size.
func resultSize(res *sidr.Result) int64 {
	n := int64(unsafe.Sizeof(*res)) + int64(len(res.KeyblockLoads))*8 + rowsSize(res.Keys, res.Values)
	for _, p := range res.Partials {
		n += int64(unsafe.Sizeof(p)) + rowsSize(p.Keys, p.Values)
	}
	return n
}

func rowsSize(keys [][]int64, values [][]float64) int64 {
	n := int64(len(keys)+len(values)) * int64(unsafe.Sizeof([]int64(nil)))
	for _, k := range keys {
		n += int64(len(k)) * 8
	}
	for _, v := range values {
		n += int64(len(v)) * 8
	}
	return n
}

// get returns the cached entry and bumps its recency, counting the hit
// or miss.
func (c *resultCache) get(key string) (*resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*resultEntry), true
}

// put inserts a completed result under the key, evicting least recently
// used entries until the byte budget holds. A result larger than the
// whole budget is not cached.
func (c *resultCache) put(key string, res *sidr.Result) {
	size := resultSize(res)
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Same key, same version, pure function: the result is equivalent;
		// keep the incumbent and just bump recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&resultEntry{key: key, res: res, size: size, cache: c})
	c.bytes += size
	c.shrinkLocked()
}

// grow charges n more bytes to an entry that has gained its encoded
// stream. An entry evicted in the meantime is not charged: the cache no
// longer keeps it alive.
func (c *resultCache) grow(e *resultEntry, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; !ok || el.Value.(*resultEntry) != e {
		return
	}
	e.size += n
	c.bytes += n
	c.shrinkLocked()
}

// shrinkLocked evicts from the cold end until the byte budget holds —
// everything, if the one entry left is over it on its own — and
// refreshes the gauges. Caller holds mu.
func (c *resultCache) shrinkLocked() {
	for c.bytes > c.budget {
		c.evictLocked(c.ll.Back())
	}
	c.publishLocked()
}

// evictLocked removes one entry and counts the eviction. Caller holds mu.
func (c *resultCache) evictLocked(el *list.Element) {
	e := el.Value.(*resultEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.evictions.Inc()
}

// publishLocked refreshes the size gauges. Caller holds mu.
func (c *resultCache) publishLocked() {
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(c.ll.Len()))
}
