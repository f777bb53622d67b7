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
