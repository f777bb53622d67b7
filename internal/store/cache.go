package store

import (
	"sync"
	"sync/atomic"
)

// The hot-block cache: a buffer-pool-style, byte-budgeted LRU over
// fetched data-block payloads, so a hot object under heavy read traffic
// costs one backend read instead of one per reader. A payload is never
// written again once cached (Backend.Read results are the reader's own,
// and a frame lent to a decode never reaches the cache), so eviction
// needs no pins: an evicted or invalidated payload stays valid for
// whoever already holds the slice, and the garbage collector frees it
// after the last one.
//
// Keying: entries are keyed by the backend block key, which already
// embeds (object name, generation, stripe index, block position) and is
// never reused — see blockKey: every PUT and every relocation writes
// under a fresh generation. A new copy therefore never collides with a
// cached old one, and staleness is purely a residency question, settled
// in one place: reclaim drops a copy's entry when it deletes the copy,
// which is after every reader whose snapshot names it has finished. Until
// then the entry can only serve those readers — no later snapshot names
// its key.
//
// The cache is sharded by key hash; each shard has its own lock, table,
// intrusive LRU list and slice of the byte budget, so concurrent
// streaming reads on different objects never serialize on one mutex.

// cacheShards is the shard count (power of two, so the hash maps with a
// mask). 16 shards keep lock hold times negligible at the read pool's
// default concurrency.
const cacheShards = 16

// cacheEntry is one resident block payload. The list links are guarded
// by the owning shard's mutex; key and payload are immutable.
type cacheEntry struct {
	key     string
	payload []byte
	// LRU list links; head side is most recently used.
	prev, next *cacheEntry
}

// cost is what an entry is charged against the byte budget: the
// payload's capacity, not its length. Holding the slice pins its whole
// backing array, so a backend that returns over-capacity slices fills
// the budget sooner instead of overrunning it unseen.
func (e *cacheEntry) cost() int64 { return int64(cap(e.payload)) }

// cacheShard is one lock's worth of the cache: a key table, an LRU list
// threaded through the entries (root is the sentinel), and this shard's
// slice of the byte budget.
type cacheShard struct {
	mu     sync.Mutex
	table  map[string]*cacheEntry
	root   cacheEntry
	bytes  int64
	budget int64
}

// blockCache is the store-wide cache. Counters are atomics so Metrics
// never takes the shard locks.
type blockCache struct {
	shards        [cacheShards]cacheShard
	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	bytes         atomic.Int64 // bytes held by resident payloads, all shards
}

func newBlockCache(budget int64) *blockCache {
	c := &blockCache{}
	per := budget / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.table = make(map[string]*cacheEntry)
		sh.budget = per
		sh.root.next = &sh.root
		sh.root.prev = &sh.root
	}
	return c
}

// shardFor hashes a block key (FNV-1a) onto its shard.
func (c *blockCache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&(cacheShards-1)]
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = &sh.root
	e.next = sh.root.next
	e.prev.next = e
	e.next.prev = e
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// drop removes an entry from the table, the LRU list and the byte
// accounting. A reader keeps its payload slice — dropping only ends the
// entry's cache residency.
func (sh *cacheShard) drop(c *blockCache, e *cacheEntry) {
	sh.unlink(e)
	delete(sh.table, e.key)
	sh.bytes -= e.cost()
	c.bytes.Add(-e.cost())
}

// get returns the cached payload for key, or nil on a miss.
func (c *blockCache) get(key string) []byte {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e := sh.table[key]
	if e == nil {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	sh.unlink(e)
	sh.pushFront(e)
	sh.mu.Unlock()
	c.hits.Add(1)
	return e.payload
}

// add inserts (or refreshes) a payload at MRU, then evicts LRU-first
// back down to the shard budget. Payloads larger than a whole shard
// budget are not cached (admitting one would just flush the shard for a
// single entry that can never stay).
func (c *blockCache) add(key string, payload []byte) {
	sh := c.shardFor(key)
	e := &cacheEntry{key: key, payload: payload}
	if e.cost() > sh.budget {
		return
	}
	sh.mu.Lock()
	if old := sh.table[key]; old != nil {
		sh.drop(c, old)
	}
	sh.table[key] = e
	sh.pushFront(e)
	sh.bytes += e.cost()
	c.bytes.Add(e.cost())
	for sh.bytes > sh.budget {
		sh.drop(c, sh.root.prev)
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// invalidate drops key if resident. reclaim calls it for every copy it
// deletes, so a copy serves no hit once it is gone from its node.
func (c *blockCache) invalidate(key string) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e := sh.table[key]; e != nil {
		sh.drop(c, e)
		c.invalidations.Add(1)
	}
	sh.mu.Unlock()
}
