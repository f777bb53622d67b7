package store

import (
	"sync"
	"sync/atomic"
)

// The hot-block cache: a buffer-pool-style, byte-budgeted LRU over
// fetched data-block payloads, so a hot object under heavy read traffic
// costs one backend read instead of one per reader. A payload is never
// written again once cached (the cache keeps only blocks read through
// Backend.Read, whose results are the reader's own, or rebuilt into
// buffers of their own, and never a frame lent from Store.frames), so
// eviction needs no pins: an evicted or invalidated payload stays valid
// for whoever already holds the slice, and the garbage collector frees
// it after the last one.
//
// Admission: the list holds keys, not only bytes. A miss is answered
// before its block is read: the cache keeps the block's bytes when the
// shard has room for them without evicting, or when the key is on the
// list as a placeholder — it came back within one budget's reach.
// Otherwise the key is listed as a placeholder: a key-only entry,
// charged the block's length, that evicts LRU-first like a resident one.
// A shard listing a placeholder has overflowed and offers a stranger no
// room: a payload is charged its capacity, which can exceed a
// placeholder's charge, so the room a placeholder's eviction leaves
// would admit a block that then evicts. So a cache with room admits
// everything, as a plain LRU would, while a scan larger than the budget
// leaves placeholders instead of bytes, and its reader borrows pooled
// frames for the blocks the cache declines. Placeholders hold no bytes
// and count in no metric: CacheBytes, CacheEvictions and
// CacheInvalidations are about resident payloads.
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

// cacheEntry is one listed key: a resident block payload, or a
// placeholder (payload nil) that remembers the key and is charged what
// its block would cost. The list links are guarded by the owning shard's
// mutex; key, payload and charge are immutable.
type cacheEntry struct {
	key     string
	payload []byte
	// charge is what the entry costs against the byte budget: a
	// payload's capacity, not its length — holding the slice pins its
	// whole backing array, so a backend that returns over-capacity slices
	// fills the budget sooner instead of overrunning it unseen — and a
	// placeholder's block length.
	charge int64
	// LRU list links; head side is most recently used.
	prev, next *cacheEntry
}

func (e *cacheEntry) resident() bool { return e.payload != nil }

// cacheShard is one lock's worth of the cache: a key table, an LRU list
// threaded through the entries (root is the sentinel), and this shard's
// slice of the byte budget, which resident entries and placeholders
// share.
type cacheShard struct {
	mu           sync.Mutex
	table        map[string]*cacheEntry
	root         cacheEntry
	bytes        int64
	budget       int64
	placeholders int // listed entries with no payload
}

// blockCache is the store-wide cache. Counters are atomics so Metrics
// never takes the shard locks; all of them count resident payloads only.
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

// insert lists e at MRU and charges it, then evicts LRU-first back down
// to the shard budget.
func (sh *cacheShard) insert(c *blockCache, e *cacheEntry) {
	sh.table[e.key] = e
	sh.pushFront(e)
	sh.bytes += e.charge
	if e.resident() {
		c.bytes.Add(e.charge)
	} else {
		sh.placeholders++
	}
	for sh.bytes > sh.budget {
		victim := sh.root.prev
		sh.drop(c, victim)
		if victim.resident() {
			c.evictions.Add(1)
		}
	}
}

// drop removes an entry from the table, the LRU list and the byte
// accounting. A reader keeps its payload slice — dropping only ends the
// entry's cache residency.
func (sh *cacheShard) drop(c *blockCache, e *cacheEntry) {
	sh.unlink(e)
	delete(sh.table, e.key)
	sh.bytes -= e.charge
	if e.resident() {
		c.bytes.Add(-e.charge)
	} else {
		sh.placeholders--
	}
}

// get returns the cached payload for key, or nil on a miss.
func (c *blockCache) get(key string) []byte {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e := sh.table[key]
	if e == nil || !e.resident() {
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

// admit answers a miss on key before its n-byte block is read: whether
// the cache will store the block, which the caller then passes to add.
// Yes when the key is listed as a placeholder (it came back within one
// budget's reach; the placeholder moves to MRU), or when the shard lists
// no placeholder and has room for n more bytes without evicting. Otherwise the key is listed as
// a placeholder charged n bytes, evicting LRU-first, and the caller reads
// the block into a buffer of its own choosing. A key a racing reader has
// made resident since the miss is left as it is and not stored again; a
// block larger than a whole shard budget is never stored and leaves no
// placeholder (listing one would just flush the shard for a single entry
// that can never stay).
func (c *blockCache) admit(key string, n int64) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table[key]
	switch {
	case e != nil && e.resident():
		return false
	case e != nil:
		sh.unlink(e)
		sh.pushFront(e)
		return true
	case n > sh.budget:
		return false
	case sh.placeholders == 0 && sh.bytes+n <= sh.budget:
		return true
	}
	sh.insert(c, &cacheEntry{key: key, charge: n})
	return false
}

// add stores a payload at MRU, in place of whatever entry its key has —
// its placeholder, or the payload of a reader that raced this one to the
// same block — then evicts LRU-first back down to the shard budget.
// Payloads larger than a whole shard budget are not cached.
func (c *blockCache) add(key string, payload []byte) {
	sh := c.shardFor(key)
	e := &cacheEntry{key: key, payload: payload, charge: int64(cap(payload))}
	if e.charge > sh.budget {
		return
	}
	sh.mu.Lock()
	if old := sh.table[key]; old != nil {
		sh.drop(c, old)
	}
	sh.insert(c, e)
	sh.mu.Unlock()
}

// invalidate drops key, resident or placeholder. reclaim calls it for
// every copy it deletes, so a copy serves no hit once it is gone from its
// node.
func (c *blockCache) invalidate(key string) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e := sh.table[key]; e != nil {
		sh.drop(c, e)
		if e.resident() {
			c.invalidations.Add(1)
		}
	}
	sh.mu.Unlock()
}
