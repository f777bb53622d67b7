package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestBlockCacheEviction: the byte budget holds — inserting far more
// than fits evicts LRU entries, keeps residency at or under budget, and
// the freshest key still hits.
func TestBlockCacheEviction(t *testing.T) {
	const budget = 16 << 10
	c := newBlockCache(budget)
	payload := make([]byte, 512)
	var last string
	for i := 0; i < 256; i++ {
		last = fmt.Sprintf("key-%04d", i)
		c.add(last, payload)
	}
	if got := c.bytes.Load(); got > budget {
		t.Fatalf("resident %d bytes, budget %d", got, budget)
	}
	if c.evictions.Load() == 0 {
		t.Fatal("256×512 bytes into a 16 KiB cache evicted nothing")
	}
	p := c.get(last)
	if p == nil {
		t.Fatalf("just-added key %q already evicted", last)
	}
	if len(p) != len(payload) {
		t.Fatalf("payload %d bytes, want %d", len(p), len(payload))
	}
	// Oversized payloads are refused outright, not admitted-then-evicted.
	big := make([]byte, budget)
	before := c.bytes.Load()
	c.add("whale", big)
	if c.get("whale") != nil {
		t.Fatal("payload larger than a shard budget was admitted")
	}
	if got := c.bytes.Load(); got != before {
		t.Fatalf("refused insert changed residency %d -> %d", before, got)
	}
}

// TestBlockCacheChargesCapacity: an entry costs what it pins. A 1 KiB
// slice of a 1 MiB array holds the whole MiB live, so the budget, the
// whale check and the resident-bytes gauge all count cap, not len —
// a backend handing out over-capacity slices fills the cache early, it
// does not overrun it.
func TestBlockCacheChargesCapacity(t *testing.T) {
	const budget = cacheShards * (2 << 20) // 2 MiB per shard
	c := newBlockCache(budget)
	for i := 0; i < 96; i++ {
		c.add(fmt.Sprintf("key-%04d", i), make([]byte, 1<<20)[:1<<10])
	}
	if got := c.bytes.Load(); got > budget {
		t.Fatalf("resident payloads pin %d bytes, budget %d", got, budget)
	}
	if c.evictions.Load() == 0 {
		t.Fatal("96 payloads pinning 1 MiB each fit a 32 MiB cache with no eviction: charged by len")
	}
	// Residency drains to exactly zero: add and drop charge the same size.
	for i := 0; i < 96; i++ {
		c.invalidate(fmt.Sprintf("key-%04d", i))
	}
	if got := c.bytes.Load(); got != 0 {
		t.Fatalf("empty cache reports %d resident bytes", got)
	}
	// A short slice of an array bigger than a shard is a whale.
	c.add("whale", make([]byte, 4<<20)[:1<<10])
	if c.get("whale") != nil {
		t.Fatal("payload pinning more than a shard budget was admitted")
	}
}

// TestCachedReadsSkipBackend: the tentpole behavior — a repeat read of
// a warm object costs zero backend block reads, for full gets and
// ranged gets alike.
func TestCachedReadsSkipBackend(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: cb, BlockSize: 128, CacheBytes: 64 << 20})
	rng := rand.New(rand.NewSource(7))
	k := s.Codec().K()
	want := randBytes(rng, 3*128*k+57)
	if err := s.Put("hot", want); err != nil {
		t.Fatal(err)
	}
	got, info, err := s.Get("hot")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("warming Get: err %v", err)
	}
	if info.BlocksRead == 0 {
		t.Fatal("warming Get read no blocks")
	}
	readsAfterWarm := cb.reads.Load()

	got, info, err = s.Get("hot")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cached Get: err %v", err)
	}
	if info.BlocksRead != 0 || info.BytesRead != 0 {
		t.Fatalf("cached Get cost %d blocks / %d bytes, want 0", info.BlocksRead, info.BytesRead)
	}
	if got := cb.reads.Load(); got != readsAfterWarm {
		t.Fatalf("cached Get hit the backend: %d -> %d reads", readsAfterWarm, got)
	}

	var buf bytes.Buffer
	info, err = s.GetRange("hot", 100, 500, &buf)
	if err != nil || !bytes.Equal(buf.Bytes(), want[100:600]) {
		t.Fatalf("cached GetRange: err %v", err)
	}
	if info.BlocksRead != 0 {
		t.Fatalf("cached GetRange read %d blocks, want 0", info.BlocksRead)
	}
	if got := cb.reads.Load(); got != readsAfterWarm {
		t.Fatalf("cached GetRange hit the backend: %d -> %d reads", readsAfterWarm, got)
	}

	m := s.Metrics()
	if m.CacheHits == 0 || m.CacheMisses == 0 || m.CacheBytes == 0 {
		t.Fatalf("cache metrics hits=%d misses=%d bytes=%d, want all nonzero", m.CacheHits, m.CacheMisses, m.CacheBytes)
	}
}

// TestCacheInvalidationOnOverwriteAndDelete: an overwrite serves new
// bytes at once, and reclaiming the retired version routes through the
// cache, so residency doesn't accumulate dead generations and a reclaimed
// delete leaves nothing resident.
func TestCacheInvalidationOnOverwriteAndDelete(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128, CacheBytes: 64 << 20})
	rng := rand.New(rand.NewSource(8))
	k := s.Codec().K()
	v1 := randBytes(rng, 2*128*k)
	v2 := randBytes(rng, 2*128*k)
	if err := s.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get("obj"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("v1 Get: err %v", err)
	}
	resident1 := s.Metrics().CacheBytes
	if err := s.Put("obj", v2); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get("obj"); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("post-overwrite Get: err %v", err)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.CacheInvalidations == 0 {
		t.Fatal("reclaiming v1 did not invalidate its cache entries")
	}
	if m.CacheBytes > resident1 {
		t.Fatalf("residency grew across overwrite: %d -> %d (stale generation retained)", resident1, m.CacheBytes)
	}
	if err := s.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().CacheBytes; got != 0 {
		t.Fatalf("%d bytes resident after deleting the only object", got)
	}
}

// TestCacheRepairCoherence is the kill → cache-warm → repair → read
// sequence: cached entries serve reads while the node is down, the
// reclaim of the copy the repair replaced invalidates its entry, and the
// post-repair read is byte-exact with one backend re-read.
func TestCacheRepairCoherence(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: cb, Nodes: 24, Racks: 8, BlockSize: 128, CacheBytes: 64 << 20})
	rng := rand.New(rand.NewSource(9))
	k := s.Codec().K()
	want := randBytes(rng, 128*k) // one full stripe
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("warming Get: err %v", err)
	}

	victim, _, err := s.BlockLocation("obj", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(victim)

	// With the node dead, the warm cache still serves the whole object —
	// no degraded read, no backend traffic.
	got, info, err := s.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get with node down: err %v", err)
	}
	if info.BlocksRead != 0 || info.Degraded {
		t.Fatalf("warm read under node kill cost %d blocks (degraded=%v), want cache-served", info.BlocksRead, info.Degraded)
	}

	rm := NewRepairManager(s, 2)
	rm.Start()
	sc := NewScrubber(s, rm, 0)
	if rep := sc.ScrubPresence(); rep.Enqueued == 0 {
		t.Fatalf("presence scrub found nothing to repair: %+v", rep)
	}
	rm.Drain()
	rm.Stop()
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if s.Metrics().CacheInvalidations == 0 {
		t.Fatal("reclaiming the copy the repair replaced invalidated no cache entries")
	}

	// Post-repair read: byte-exact, and only the rewritten block misses.
	got, info, err = s.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-repair Get: err %v", err)
	}
	if info.BlocksRead != 1 {
		t.Fatalf("post-repair Get read %d blocks, want exactly the repaired one", info.BlocksRead)
	}
}

// TestCacheChurnRace hammers one hot key with parallel Get/GetRange
// readers under overwrite churn. Every read must observe one internally
// consistent version (the per-generation keying means a read can never
// stitch two generations together), and the cache must still be earning
// hits. Run with -race in CI.
func TestCacheChurnRace(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64, CacheBytes: 64 << 20})
	k := s.Codec().K()
	size := 5*64*k + 33
	payloadFor := func(v byte) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = v ^ byte(i%251)
		}
		return p
	}
	// checkVersion runs inside reader goroutines, so it must report with
	// Errorf (FailNow is for the test goroutine only).
	checkVersion := func(got []byte, off int) bool {
		if len(got) == 0 {
			t.Error("empty read")
			return false
		}
		v := got[0] ^ byte(off%251)
		for j := range got {
			if want := v ^ byte((off+j)%251); got[j] != want {
				t.Errorf("byte %d of version-%d read: got %#x want %#x (generations mixed?)", off+j, v, got[j], want)
				return false
			}
		}
		return true
	}
	if err := s.Put("hot", payloadFor(0)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := byte(1); v <= 40; v++ {
			if err := s.Put("hot", payloadFor(v)); err != nil {
				t.Errorf("overwrite %d: %v", v, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			churning := true
			for i := 0; churning || i%4 != 0; i++ {
				select {
				case <-done:
					churning = false
				default:
				}
				if (r+i)%2 == 0 {
					got, _, err := s.Get("hot")
					if err != nil {
						t.Errorf("Get under churn: %v", err)
						return
					}
					if !checkVersion(got, 0) {
						return
					}
				} else {
					off := 100 + (r+i)%200
					var buf bytes.Buffer
					if _, err := s.GetRange("hot", int64(off), 300, &buf); err != nil {
						t.Errorf("GetRange under churn: %v", err)
						return
					}
					if !checkVersion(buf.Bytes(), off) {
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	m := s.Metrics()
	if m.CacheHits == 0 {
		t.Fatal("no cache hits under churn")
	}
	if m.CacheInvalidations == 0 {
		t.Fatal("40 overwrites invalidated nothing")
	}
}

// shardKeys returns n keys that hash onto one shard of c, so a test can
// fill that shard's budget exactly and overflow it.
func shardKeys(c *blockCache, n int) []string {
	target := c.shardFor("k0")
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("k%d", i); c.shardFor(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// listed reports whether key is on its shard's list, and whether as a
// resident entry, without touching the LRU order or the hit counters.
func listed(c *blockCache, key string) (onList, resident bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table[key]
	return e != nil, e != nil && e.resident()
}

// cacheMetric is the cache's three resident-only counters, for
// comparing before and after.
type cacheMetric struct{ bytes, evictions, invalidations int64 }

func metricsOf(c *blockCache) cacheMetric {
	return cacheMetric{c.bytes.Load(), c.evictions.Load(), c.invalidations.Load()}
}

// The admission tests run one shard at a 4-block budget with 100-byte
// blocks.
const admitBlock, admitSlots = 100, 4

func newAdmitCache() *blockCache { return newBlockCache(cacheShards * admitSlots * admitBlock) }

// TestCacheAdmitsWithRoomOrReturningKey: a miss is stored while its
// shard has room without evicting, and when its key comes back while its
// placeholder is still listed; any other miss is declined.
func TestCacheAdmitsWithRoomOrReturningKey(t *testing.T) {
	c := newAdmitCache()
	keys := shardKeys(c, admitSlots+1)
	for _, k := range keys[:admitSlots] {
		if c.get(k) != nil || !c.admit(k, admitBlock) {
			t.Fatalf("%s: a miss with room was declined", k)
		}
		c.add(k, make([]byte, admitBlock))
	}
	if m := metricsOf(c); m != (cacheMetric{bytes: admitSlots * admitBlock}) {
		t.Fatalf("after the fill: %+v", m)
	}
	late := keys[admitSlots]
	if c.admit(late, admitBlock) {
		t.Fatal("a miss on a full shard was stored")
	}
	if on, res := listed(c, late); !on || res {
		t.Fatalf("the declined key is listed %v, resident %v: want a placeholder", on, res)
	}
	if !c.admit(late, admitBlock) {
		t.Fatal("a key that came back while its placeholder was listed was declined")
	}
	c.add(late, make([]byte, admitBlock))
	if c.get(late) == nil {
		t.Fatal("the returning key's payload is not resident")
	}
	// The placeholder already held the key's charge: storing the payload
	// in its place evicted nothing more than the placeholder itself did.
	if m := metricsOf(c); m != (cacheMetric{bytes: admitSlots * admitBlock, evictions: 1}) {
		t.Fatalf("after the returning key: %+v, want the budget resident and the one eviction its placeholder made", m)
	}
}

// TestCacheNoRoomWhileOverflowing: a shard that lists a placeholder
// admits no stranger on room alone, even where the placeholder's charge
// left room — a short block's placeholder evicting a full block, or a
// payload charged its over-length capacity — since the block would then
// evict in its turn. Once its placeholders are gone, room admits again.
func TestCacheNoRoomWhileOverflowing(t *testing.T) {
	c := newAdmitCache()
	keys := shardKeys(c, admitSlots+2)
	for _, k := range keys[:admitSlots] {
		c.admit(k, admitBlock)
		c.add(k, make([]byte, admitBlock))
	}
	short := keys[admitSlots]
	if c.admit(short, admitBlock/10) {
		t.Fatal("stored on a full shard")
	}
	if sh := c.shardFor(short); sh.bytes+admitBlock/2 > sh.budget {
		t.Fatalf("shard charge %d of %d: the short placeholder left no room to test", sh.bytes, sh.budget)
	}
	stranger := keys[admitSlots+1]
	if c.admit(stranger, admitBlock/2) {
		t.Fatal("a stranger was stored on a shard that lists a placeholder")
	}
	c.invalidate(short)
	c.invalidate(stranger)
	if !c.admit(stranger, admitBlock/2) {
		t.Fatal("with its placeholders gone, a shard with room declined")
	}
}

// TestCachePlaceholderEvictsLRUFirst: a placeholder is charged its block
// length against the shard budget and is evicted LRU-first like a
// resident entry, and evicts like one.
func TestCachePlaceholderEvictsLRUFirst(t *testing.T) {
	c := newAdmitCache()
	keys := shardKeys(c, 2*admitSlots+1)
	resident, scan := keys[:admitSlots], keys[admitSlots:]
	for _, k := range resident {
		c.admit(k, admitBlock)
		c.add(k, make([]byte, admitBlock))
	}
	// Each placeholder evicts the least recently used resident.
	for i, k := range scan[:admitSlots] {
		if c.admit(k, admitBlock) {
			t.Fatalf("%s: stored on a full shard", k)
		}
		for j, r := range resident {
			if _, res := listed(c, r); res != (j > i) {
				t.Fatalf("after %d placeholders, resident %d listed %v", i+1, j, res)
			}
		}
	}
	sh := c.shardFor(keys[0])
	if m := metricsOf(c); m != (cacheMetric{evictions: admitSlots}) || sh.bytes != admitSlots*admitBlock {
		t.Fatalf("a shard of placeholders: %+v, shard charge %d, want %d", m, sh.bytes, admitSlots*admitBlock)
	}
	// A further placeholder evicts the oldest placeholder: scan[0].
	if c.admit(scan[admitSlots], admitBlock) {
		t.Fatal("stored on a shard full of placeholders")
	}
	if on, _ := listed(c, scan[0]); on {
		t.Fatal("the least recently listed placeholder survived")
	}
	for _, k := range scan[1:] {
		if on, _ := listed(c, k); !on {
			t.Fatalf("%s: a newer placeholder went first", k)
		}
	}
	// A returning key moves its placeholder to MRU, so the next eviction
	// takes the one after it.
	if !c.admit(scan[1], admitBlock) {
		t.Fatal("a listed placeholder's key was declined")
	}
	c.admit(scan[0], admitBlock)
	if on, _ := listed(c, scan[1]); !on {
		t.Fatal("the placeholder its key refreshed was evicted")
	}
	if on, _ := listed(c, scan[2]); on {
		t.Fatal("the least recently used placeholder survived")
	}
}

// TestCachePlaceholderCountsInNoMetric: placeholders hold no bytes, and
// listing, evicting or invalidating one moves none of CacheBytes,
// CacheEvictions and CacheInvalidations.
func TestCachePlaceholderCountsInNoMetric(t *testing.T) {
	c := newAdmitCache()
	keys := shardKeys(c, 4*admitSlots)
	for _, k := range keys[:admitSlots] {
		c.admit(k, admitBlock)
		c.add(k, make([]byte, admitBlock))
	}
	for _, k := range keys[admitSlots : 2*admitSlots] {
		c.admit(k, admitBlock) // evicts the residents: counted
	}
	before := metricsOf(c)
	if before != (cacheMetric{evictions: admitSlots}) {
		t.Fatalf("residents evicted by placeholders: %+v", before)
	}
	for _, k := range keys[2*admitSlots:] {
		if c.admit(k, admitBlock) {
			t.Fatalf("%s: stored on a shard full of placeholders", k)
		}
	}
	for _, k := range keys {
		c.invalidate(k)
	}
	if got := metricsOf(c); got != before {
		t.Fatalf("placeholders moved the metrics: %+v -> %+v", before, got)
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 0 || m != 0 {
		t.Fatalf("admit counted %d hits, %d misses: only get counts", h, m)
	}
}

// TestCachePlaceholderNeverReplacesResident: two readers that miss on
// the same block race to answer it. Whichever order they land in, a
// resident payload stays resident, and a stored payload takes its
// placeholder's place.
func TestCachePlaceholderNeverReplacesResident(t *testing.T) {
	// Resident first: A misses; B misses with room, is admitted and
	// stores; the shard fills; A's admission finds the key resident.
	c := newAdmitCache()
	keys := shardKeys(c, admitSlots+1)
	k := keys[0]
	if c.get(k) != nil || c.get(k) != nil {
		t.Fatal("hit on an empty cache")
	}
	if !c.admit(k, admitBlock) {
		t.Fatal("B: a miss with room was declined")
	}
	payload := make([]byte, admitBlock)
	c.add(k, payload)
	for _, f := range keys[1:admitSlots] {
		c.admit(f, admitBlock)
		c.add(f, make([]byte, admitBlock))
	}
	before := metricsOf(c)
	if c.admit(k, admitBlock) {
		t.Fatal("A: told to store a block a racing reader already stored")
	}
	if got := c.get(k); got == nil || &got[0] != &payload[0] {
		t.Fatal("A's admission replaced the resident payload")
	}
	if got := metricsOf(c); got != before {
		t.Fatalf("A's admission moved the metrics: %+v -> %+v", before, got)
	}

	// Placeholder first: A misses on a full shard and lists a
	// placeholder; B, missing on the same key, is told to store, and its
	// payload takes the placeholder's place.
	c = newAdmitCache()
	for _, f := range keys[1:] {
		c.admit(f, admitBlock)
		c.add(f, make([]byte, admitBlock))
	}
	if c.admit(k, admitBlock) {
		t.Fatal("A: stored on a full shard")
	}
	if !c.admit(k, admitBlock) {
		t.Fatal("B: the key is listed, yet declined")
	}
	c.add(k, payload)
	if got := c.get(k); got == nil || &got[0] != &payload[0] {
		t.Fatal("B's payload is not resident in the placeholder's place")
	}
	if got := c.shardFor(k).bytes; got != admitSlots*admitBlock {
		t.Fatalf("shard charge %d: the placeholder was not replaced", got)
	}
}

// TestCacheInvalidateDropsEitherKind: invalidate takes a key off the
// list whether it is resident or a placeholder; only the resident one
// counts as an invalidation, and a key whose placeholder went is a
// stranger again.
func TestCacheInvalidateDropsEitherKind(t *testing.T) {
	c := newAdmitCache()
	keys := shardKeys(c, admitSlots+1)
	for _, k := range keys[:admitSlots] {
		c.admit(k, admitBlock)
		c.add(k, make([]byte, admitBlock))
	}
	ph := keys[admitSlots]
	c.admit(ph, admitBlock) // lists a placeholder, evicts keys[0]
	c.invalidate(keys[1])
	if on, _ := listed(c, keys[1]); on {
		t.Fatal("an invalidated resident is still listed")
	}
	if m := metricsOf(c); m != (cacheMetric{bytes: 2 * admitBlock, evictions: 1, invalidations: 1}) {
		t.Fatalf("after invalidating a resident: %+v", m)
	}
	c.invalidate(ph)
	if on, _ := listed(c, ph); on {
		t.Fatal("an invalidated placeholder is still listed")
	}
	if m := metricsOf(c); m.invalidations != 1 {
		t.Fatalf("invalidating a placeholder counted: %+v", m)
	}
	// Two slots free now: fill them, and the old placeholder's key finds
	// no room and no placeholder.
	for _, k := range keys[:2] {
		c.admit(k, admitBlock)
		c.add(k, make([]byte, admitBlock))
	}
	if c.admit(ph, admitBlock) {
		t.Fatal("a key whose placeholder was invalidated was still admitted as returning")
	}
}

// TestCacheCyclicScanHoldsNoBytes: a GET scan cycling over three times
// the cache budget never hits: every shard fills, and then each miss
// lists a placeholder that evicts LRU-first, so no key comes back while
// it is still listed and, after one pass beyond the fill, no bytes are
// held at all. A plain LRU would have the same hit rate, holding the
// budget in payloads that are never read again.
func TestCacheCyclicScanHoldsNoBytes(t *testing.T) {
	const bs = 256
	const budget = cacheShards * 10 * bs
	s := newTestStore(t, Config{BlockSize: bs, CacheBytes: budget})
	k := s.Codec().K()
	rng := rand.New(rand.NewSource(55))
	objects := make([][]byte, 3*budget/(k*bs))
	for i := range objects {
		objects[i] = randBytes(rng, k*bs)
		if err := s.Put(fmt.Sprintf("scan%02d", i), objects[i]); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 3; pass++ {
		for i, want := range objects {
			if got, _, err := s.Get(fmt.Sprintf("scan%02d", i)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("pass %d: Get scan%02d: err %v", pass, i, err)
			}
		}
		m := s.Metrics()
		if m.CacheHits != 0 {
			t.Fatalf("pass %d: %d hits on a scan over 3x the budget", pass, m.CacheHits)
		}
		if pass == 0 && m.CacheEvictions == 0 {
			t.Fatal("the first pass never filled the cache")
		}
		if pass > 0 && m.CacheBytes != 0 {
			t.Fatalf("pass %d: %d bytes resident after the fill was scanned past", pass, m.CacheBytes)
		}
	}
}
