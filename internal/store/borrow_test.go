package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lendingBackend is a MemBackend that also takes a caller's buffer, the
// way the netblock client does: ReadInto copies a block that fits into
// dst and returns dst[:len], and remembers every buffer it filled, so a
// test can scribble over all of them afterwards.
type lendingBackend struct {
	*MemBackend
	mu   sync.Mutex
	lent [][]byte
}

func (b *lendingBackend) ReadInto(node int, key string, dst []byte) ([]byte, error) {
	blk, err := b.MemBackend.Read(node, key)
	if err != nil || len(blk) > cap(dst) {
		return blk, err
	}
	out := dst[:len(blk)]
	copy(out, blk)
	b.mu.Lock()
	b.lent = append(b.lent, dst[:cap(dst)])
	b.mu.Unlock()
	return out, nil
}

// poison overwrites every buffer the backend has ever filled — all of
// them back in the store's pool by now, if the store keeps its word — and
// returns how many there were.
func (b *lendingBackend) poison() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range b.lent {
		for i := range f {
			f[i] = 0xDB
		}
	}
	return len(b.lent)
}

// TestBorrowedSourcesNeverEscape: whatever reconstructPositions hands
// back, keeps or passes on must be nobody's borrowed frame. Every frame a
// decode's sources landed in is poisoned after the fact, at each place
// the sources could have leaked to — a fetched stripe, the block cache, a
// repair's write-back — and everything is then read back byte-exact.
func TestBorrowedSourcesNeverEscape(t *testing.T) {
	const bs = 64
	for _, codec := range []Codec{NewXorbasCodec(), NewRS104Codec()} {
		be := &lendingBackend{MemBackend: NewMemBackend()}
		s := newTestStore(t, Config{Codec: codec, Backend: be, BlockSize: bs, CacheBytes: 1 << 20})
		k := codec.K()
		rng := rand.New(rand.NewSource(24))
		objects := map[string][]byte{}
		for i, n := range []int{1, k*bs - 3, k * bs, 3*k*bs + bs/2} {
			name := fmt.Sprintf("o%d", i)
			objects[name] = randBytes(rng, n)
			if err := s.Put(name, objects[name]); err != nil {
				t.Fatal(err)
			}
		}
		readAll := func(when string) {
			t.Helper()
			for name, want := range objects {
				if got, _, err := s.Get(name); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s, %s: Get %s: err %v, exact %v", codec.Name(), when, name, err, bytes.Equal(got, want))
				}
			}
		}
		poison := func(when string) {
			t.Helper()
			if be.poison() == 0 {
				t.Fatalf("%s, %s: no read ever landed in a lent frame: the borrow path did not run", codec.Name(), when)
			}
		}
		s.KillNode(0)

		// The cache: degraded GETs admit the blocks they rebuilt.
		readAll("node 0 dead")
		poison("degraded GETs")
		hits := s.Metrics().CacheHits
		readAll("node 0 dead, from the cache")
		if s.Metrics().CacheHits == hits {
			t.Fatalf("%s: the re-read hit no cached block", codec.Name())
		}
		for name, object := range objects {
			stripes, gen, _ := s.manifestSnapshot(name)
			for idx, want := range wantFrames(t, codec, bs, object) {
				for pos := 0; pos < k; pos++ {
					if payload, e := s.cache.get(stripes[idx].Keys[pos]); e != nil {
						if !bytes.Equal(payload, want[pos][4:]) {
							t.Fatalf("%s: cached %s is not the block", codec.Name(), stripes[idx].Keys[pos])
						}
						s.cache.unpin(e)
					}
				}
			}
			s.unpin(name, gen)
		}

		// A fetched stripe: poison the pool while the result is still held.
		for name, object := range objects {
			stripes, gen, ok := s.manifestSnapshot(name)
			if !ok {
				t.Fatal("manifest gone")
			}
			for idx, want := range wantFrames(t, codec, bs, object) {
				for _, key := range stripes[idx].Keys {
					s.cache.invalidate(key) // or the GETs above answer for the backend
				}
				res := s.fetchStripe(&stripes[idx], make([][]byte, codec.NStored()), 0, k-1)
				if res.err != nil {
					t.Fatal(res.err)
				}
				be.poison()
				for pos := 0; pos < k; pos++ {
					if !bytes.Equal(res.stripe[pos], want[pos][4:]) {
						t.Fatalf("%s: %s stripe %d block %d changed when the frame pool was poisoned", codec.Name(), name, idx, pos)
					}
				}
				for pos := k; pos < len(res.stripe); pos++ {
					if res.stripe[pos] != nil {
						t.Fatalf("%s: %s stripe %d: source %d left in the stripe", codec.Name(), name, idx, pos)
					}
				}
				res.release(s.cache)
			}
			s.unpin(name, gen)
		}
		poison("degraded fetches")

		// A write-back: poison between a repair's decode and its write.
		rm := NewRepairManager(s, 1)
		var scratch repairScratch
		for name := range objects {
			stripes, gen, _ := s.manifestSnapshot(name)
			for idx := range stripes {
				var damaged []int
				for pos, node := range stripes[idx].Nodes {
					if node == 0 {
						damaged = append(damaged, pos)
					}
				}
				if len(damaged) == 0 {
					continue
				}
				write := rm.repairFetch(repairItem{ref: stripeRef{name: name, gen: gen, idx: idx}, damaged: damaged}, &scratch)
				if write == nil {
					t.Fatalf("%s: %s stripe %d: nothing to write back", codec.Name(), name, idx)
				}
				be.poison()
				write()
			}
			s.unpin(name, gen)
		}
		poison("repairs")

		// A second node goes, and the manager's own pipeline drains it.
		s.KillNode(1)
		rm.Start()
		sc := NewScrubber(s, rm, time.Hour)
		sc.ScrubPresence()
		rm.Drain()
		rm.Stop()
		poison("repair drain")
		if rep := sc.ScrubOnce(); rep.Missing+rep.Corrupt+rep.Enqueued != 0 {
			t.Fatalf("%s: scrub after the repairs: %+v", codec.Name(), rep)
		}
		readAll("repaired")
		if m := s.Metrics(); m.DegradedReads == 0 || m.RepairedBlocks == 0 {
			t.Fatalf("%s: %d degraded reads, %d repaired blocks: the test did not exercise both", codec.Name(), m.DegradedReads, m.RepairedBlocks)
		}
	}
}

// TestBorrowConcurrent races everything that borrows frames against
// everything that could be handed one by mistake: degraded GETs (a dead
// node keeps reads degraded), a repair pipeline draining the dead node,
// and overwrites retiring the versions under both. Every GET returns
// some complete version of its object. Run under -race -count=10 in CI:
// a frame pooled while a read into it is still in flight is a reported
// race.
func TestBorrowConcurrent(t *testing.T) {
	const bs = 128
	be := &lendingBackend{MemBackend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: be, BlockSize: bs, CacheBytes: 64 << 10})
	k := s.Codec().K()
	const names, versions = 4, 3
	// version v of object i is 2 stripes and a bit of one byte value, so
	// any complete version is recognisable and any mixture is not.
	size := 2*k*bs + bs/3
	body := func(i, v int) []byte { return bytes.Repeat([]byte{byte(1 + i*versions + v)}, size) }
	for i := 0; i < names; i++ {
		if err := s.Put(fmt.Sprintf("c%d", i), body(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.KillNode(5)
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	sc := NewScrubber(s, rm, time.Hour)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < names; i++ {
		wg.Add(2)
		go func(i int) { // reader
			defer wg.Done()
			name := fmt.Sprintf("c%d", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := s.Get(name)
				if err != nil {
					t.Errorf("Get %s: %v", name, err)
					return
				}
				if len(got) != size || bytes.Count(got, got[:1]) != size || got[0] < byte(1+i*versions) || got[0] > byte(i*versions+versions) {
					t.Errorf("Get %s: %d bytes starting %#x: not one version of the object", name, len(got), got[0])
					return
				}
			}
		}(i)
		go func(i int) { // overwriter
			defer wg.Done()
			for v := 1; v < versions; v++ {
				time.Sleep(5 * time.Millisecond)
				if err := s.Put(fmt.Sprintf("c%d", i), body(i, v)); err != nil {
					t.Errorf("overwrite c%d: %v", i, err)
				}
			}
		}(i)
	}
	for round := 0; round < 6; round++ {
		sc.ScrubPresence()
		rm.Drain()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	sc.ScrubPresence()
	rm.Drain()
	be.poison()
	for i := 0; i < names; i++ {
		if got, _, err := s.Get(fmt.Sprintf("c%d", i)); err != nil || !bytes.Equal(got, body(i, versions-1)) {
			t.Errorf("c%d after the race: err %v, last version %v", i, err, bytes.Equal(got, body(i, versions-1)))
		}
	}
	if m := s.Metrics(); m.RepairedBlocks == 0 || m.DegradedReads == 0 {
		t.Errorf("repaired blocks %d, degraded reads %d: the race missed a contender", m.RepairedBlocks, m.DegradedReads)
	}
}
