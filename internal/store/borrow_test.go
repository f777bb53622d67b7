package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
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
			obj, _ := s.manifestSnapshot(name)
			stripes := obj.Stripes
			for idx, want := range wantFrames(t, codec, bs, object) {
				for pos := 0; pos < k; pos++ {
					if payload := s.cache.get(stripes[idx].Keys[pos]); payload != nil && !bytes.Equal(payload, want[pos][4:]) {
						t.Fatalf("%s: cached %s is not the block", codec.Name(), stripes[idx].Keys[pos])
					}
				}
			}
			s.unpin(obj)
		}

		// A fetched stripe: poison the pool while the result is still held.
		for name, object := range objects {
			obj, ok := s.manifestSnapshot(name)
			if !ok {
				t.Fatal("manifest gone")
			}
			stripes := obj.Stripes
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
			}
			s.unpin(obj)
		}
		poison("degraded fetches")

		// A write-back: poison between a repair's decode and its write.
		rm := NewRepairManager(s, 1)
		var scratch repairScratch
		for name := range objects {
			obj, _ := s.manifestSnapshot(name)
			stripes, gen := obj.Stripes, obj.Gen
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
			s.unpin(obj)
		}
		poison("repairs")

		// A second node goes, and the manager's own pipeline drains it.
		s.KillNode(1)
		rm.Start()
		sc := NewScrubber(s, rm, 0)
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
	sc := NewScrubber(s, rm, 0)

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

// overlaps reports whether p shares memory with any byte of f's backing
// array up to its capacity.
func overlaps(p, f []byte) bool {
	if len(p) == 0 || cap(f) == 0 {
		return false
	}
	f = f[:cap(f)]
	p0, f0 := uintptr(unsafe.Pointer(&p[0])), uintptr(unsafe.Pointer(&f[0]))
	return p0 < f0+uintptr(len(f)) && f0 < p0+uintptr(len(p))
}

// inFrames reports whether p lies in one of frames.
func inFrames(p []byte, frames []*[]byte) bool {
	for _, f := range frames {
		if f != nil && overlaps(p, *f) {
			return true
		}
	}
	return false
}

// corruptBlock flips a byte of one stored block of an object, so a read
// of it fails its CRC and a GET rebuilds it.
func corruptBlock(t *testing.T, s *Store, be *MemBackend, name string, idx, pos int) {
	t.Helper()
	obj, ok := s.manifestSnapshot(name)
	if !ok {
		t.Fatalf("%s: no manifest", name)
	}
	defer s.unpin(obj)
	si := &obj.Stripes[idx]
	if err := be.Corrupt(si.Nodes[pos], si.Keys[pos]); err != nil {
		t.Fatal(err)
	}
}

// TestBorrowDeclinedBlocksInLentFrames: the blocks a GET wants but the
// cache declines — every block, with no cache — arrive in frames lent
// from the store's pool, and so does a declined block the GET rebuilds;
// whatever the cache keeps is a buffer of its own, so no cached payload
// ever aliases a frame that was lent, and poisoning every lent frame
// afterwards changes no byte any later read returns.
func TestBorrowDeclinedBlocksInLentFrames(t *testing.T) {
	const bs, objects, corruptPos = 64, 12, 3
	for _, cacheBytes := range []int64{0, cacheShards * 2 * bs} {
		be := &lendingBackend{MemBackend: NewMemBackend()}
		s := newTestStore(t, Config{Backend: be, BlockSize: bs, CacheBytes: cacheBytes})
		codec := s.Codec()
		k := codec.K()
		rng := rand.New(rand.NewSource(55))
		want := map[string][]byte{}
		for i := 0; i < objects; i++ {
			name := fmt.Sprintf("o%02d", i)
			want[name] = randBytes(rng, k*bs)
			if err := s.Put(name, want[name]); err != nil {
				t.Fatal(err)
			}
			corruptBlock(t, s, be.MemBackend, name, 0, corruptPos)
		}
		readAll := func(when string) {
			t.Helper()
			for name, w := range want {
				if got, _, err := s.Get(name); err != nil || !bytes.Equal(got, w) {
					t.Fatalf("cache %d, %s: Get %s: err %v", cacheBytes, when, name, err)
				}
			}
		}
		readAll("the fill")
		readAll("the scan")
		var declined, rebuilt, kept int
		for name, w := range want {
			obj, _ := s.manifestSnapshot(name)
			si := &obj.Stripes[0]
			blocks := wantFrames(t, codec, bs, w)[0]
			res := s.fetchStripe(si, make([][]byte, codec.NStored()), 0, k-1)
			if res.err != nil {
				t.Fatal(res.err)
			}
			for pos := 0; pos < k; pos++ {
				p := res.stripe[pos]
				if !bytes.Equal(p, blocks[pos][4:]) {
					t.Fatalf("cache %d: %s block %d is not the block", cacheBytes, name, pos)
				}
				resident := false
				if s.cache != nil {
					_, resident = listed(s.cache, si.Keys[pos])
				}
				switch {
				case inFrames(p, res.frames.frames):
					declined++
					if pos == corruptPos {
						rebuilt++
					}
				case resident:
					kept++
				default:
					t.Fatalf("cache %d: %s block %d is neither cached nor in a lent frame", cacheBytes, name, pos)
				}
			}
			res.frames.release()
			s.unpin(obj)
		}
		if declined == 0 || rebuilt == 0 {
			t.Fatalf("cache %d: %d declined blocks in frames, %d of them rebuilt: the borrow path did not run", cacheBytes, declined, rebuilt)
		}
		if cacheBytes == 0 && kept != 0 {
			t.Fatalf("no cache, yet %d blocks were kept", kept)
		}
		if s.cache != nil {
			for i := range s.cache.shards {
				sh := &s.cache.shards[i]
				for key, e := range sh.table {
					if !e.resident() {
						continue
					}
					be.mu.Lock()
					for _, f := range be.lent {
						if overlaps(e.payload, f) {
							t.Fatalf("cached %s aliases a lent frame", key)
						}
					}
					be.mu.Unlock()
				}
			}
		}
		if got := s.framesOut.Load(); got != 0 {
			t.Fatalf("cache %d: %d frames still out after every fetch was released", cacheBytes, got)
		}
		if be.poison() == 0 {
			t.Fatalf("cache %d: no read ever landed in a lent frame", cacheBytes)
		}
		readAll("the lent frames poisoned")
	}
}

// failAfter is a writer that takes n bytes and refuses the rest.
type failAfter struct{ n int }

var errRefused = errors.New("writer refused")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		m := w.n
		w.n = 0
		return m, errRefused
	}
	w.n -= len(p)
	return len(p), nil
}

// TestBorrowFramesReturnOnEveryExit: every frame a GET draws is back in
// the pool when getRange returns, whichever way it returns — a clean
// read, a writer that fails mid-object while the next stripe is being
// prefetched, and a stripe that cannot be rebuilt after earlier ones
// drained. With no cache every block is borrowed, and a corrupt block in
// the first stripe puts a rebuilt target in a frame too.
func TestBorrowFramesReturnOnEveryExit(t *testing.T) {
	const bs, stripes = 64, 4
	be := &lendingBackend{MemBackend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: be, BlockSize: bs})
	k := s.Codec().K()
	want := randBytes(rand.New(rand.NewSource(56)), stripes*k*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	corruptBlock(t, s, be.MemBackend, "obj", 0, 2)
	check := func(exit string) {
		t.Helper()
		if got := s.framesOut.Load(); got != 0 {
			t.Fatalf("%s: %d frames not returned", exit, got)
		}
		if be.poison() == 0 {
			t.Fatalf("%s: no frame was lent", exit)
		}
	}

	var buf bytes.Buffer
	info, err := getRange(s, "obj", 0, -1, &buf)
	if err != nil || !bytes.Equal(buf.Bytes(), want) || !info.Degraded {
		t.Fatalf("clean read: err %v, exact %v, degraded %v", err, bytes.Equal(buf.Bytes(), want), info.Degraded)
	}
	check("clean read")

	w := &failAfter{n: k*bs + bs/2}
	if _, err := getRange(s, "obj", 0, -1, w); !errors.Is(err, errRefused) {
		t.Fatalf("failing writer: err %v", err)
	}
	check("failing writer")

	for pos := 0; pos < s.Codec().NStored()-k+1; pos++ {
		corruptBlock(t, s, be.MemBackend, "obj", 2, pos)
	}
	buf.Reset()
	info, err = getRange(s, "obj", 0, -1, &buf)
	if !errors.Is(err, ErrUnrecoverable) || info.BytesWritten != 2*int64(k*bs) {
		t.Fatalf("unrecoverable stripe 2: err %v after %d bytes", err, info.BytesWritten)
	}
	check("unrecoverable stripe")
}

// checkWriter compares what it is written against want as it goes,
// yielding between blocks so that a frame pooled under its Write is
// taken and refilled by a concurrent GET before the comparison ends.
type checkWriter struct {
	want []byte
	off  int
	bad  bool
}

func (w *checkWriter) Write(p []byte) (int, error) {
	for lo := 0; lo < len(p); lo += 16 {
		hi := min(lo+16, len(p))
		if !bytes.Equal(p[lo:hi], w.want[w.off+lo:w.off+hi]) {
			w.bad = true
		}
		runtime.Gosched()
	}
	w.off += len(p)
	return len(p), nil
}

// TestBorrowConcurrentGets: GETs of different objects share the frame
// pool, so a frame returned before its segment has drained is refilled
// by another GET's read while the writer still holds it — bytes from the
// wrong object, and a reported race under -race. With no cache every
// block is borrowed, and each object has a corrupt block, so rebuilt
// targets in frames are drained too. Run under -race -count=10 in CI.
func TestBorrowConcurrentGets(t *testing.T) {
	const bs, names, rounds = 64, 4, 20
	be := &lendingBackend{MemBackend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: be, BlockSize: bs})
	k := s.Codec().K()
	rng := rand.New(rand.NewSource(57))
	want := make([][]byte, names)
	for i := range want {
		want[i] = randBytes(rng, 3*k*bs+bs/2)
		name := fmt.Sprintf("g%d", i)
		if err := s.Put(name, want[i]); err != nil {
			t.Fatal(err)
		}
		corruptBlock(t, s, be.MemBackend, name, 1, i)
	}
	var wg sync.WaitGroup
	for i := 0; i < names; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w := &checkWriter{want: want[i]}
				if _, err := getRange(s, fmt.Sprintf("g%d", i), 0, -1, w); err != nil || w.bad || w.off != len(want[i]) {
					t.Errorf("GET g%d: err %v, %d bytes, wrong bytes %v", i, err, w.off, w.bad)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := s.framesOut.Load(); got != 0 {
		t.Fatalf("%d frames not returned", got)
	}
}

// wireLender is a lendingBackend whose Read returns a buffer of its own,
// as the netblock client's does: a read that is lent no buffer allocates
// the block.
type wireLender struct{ *lendingBackend }

func (b wireLender) Read(node int, key string) ([]byte, error) {
	blk, err := b.MemBackend.Read(node, key)
	return bytes.Clone(blk), err
}

// TestBorrowScrubAllocation: a full scrub reads every block of every
// stripe into frames lent from the store's pool, so over a backend that
// takes a caller's buffer it allocates no block buffers. A scrub of a
// 64-stripe object allocates less than one block per stripe, where
// reading each block into a buffer of its own costs sixteen.
func TestBorrowScrubAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector, and its sync.Pool drops items at random")
	}
	const bs, stripes = 16 << 10, 64
	be := wireLender{&lendingBackend{MemBackend: NewMemBackend()}}
	s := newTestStore(t, Config{Backend: be, BlockSize: bs})
	if err := s.Put("scan", randBytes(rand.New(rand.NewSource(58)), stripes*s.Codec().K()*bs)); err != nil {
		t.Fatal(err)
	}
	sc := NewScrubber(s, NewRepairManager(s, 1), 0)
	sc.ScrubOnce() // fills the frame pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := sc.ScrubOnce()
	runtime.ReadMemStats(&after)
	if rep.Stripes != stripes || rep.Missing+rep.Corrupt+rep.Enqueued != 0 {
		t.Fatalf("scrub: %+v, want %d clean stripes", rep, stripes)
	}
	if be.poison() == 0 {
		t.Fatal("no scrub read landed in a lent frame")
	}
	if per := int64(after.TotalAlloc-before.TotalAlloc) / stripes; per >= bs {
		t.Fatalf("a full scrub allocated %d bytes per stripe, want under one %d-byte block", per, bs)
	}
}

// TestBorrowRepairProbeIntoSlabSlot: a repair's re-probe reads each
// queued position into its slot of the worker's scratch slab. Of three
// queued positions, one healed (its node is up and keeps it), one sits on
// a draining node and one on a dead node: the two that read back land in
// their slots, the healed block serves as a source and is not moved, the
// drained one is copied off from its slot and the dead one is rebuilt in
// its slot. Both written blocks are the encoder's frames byte for byte.
func TestBorrowRepairProbeIntoSlabSlot(t *testing.T) {
	const bs = 64
	be := &lendingBackend{MemBackend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: be, Nodes: 24, BlockSize: bs})
	codec := s.Codec()
	object := randBytes(rand.New(rand.NewSource(59)), 2*codec.K()*bs)
	if err := s.Put("probe", object); err != nil {
		t.Fatal(err)
	}
	want := wantFrames(t, codec, bs, object)[0]
	const healed, drained, dead = 1, 6, 12
	node := func(pos int) int {
		t.Helper()
		n, _, err := s.BlockLocation("probe", 0, pos)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	healedOn, drainedOn, deadOn := node(healed), node(drained), node(dead)
	if err := s.Decommission(drainedOn); err != nil {
		t.Fatal(err)
	}
	s.KillNode(deadOn)
	obj, _ := s.manifestSnapshot("probe")
	ref := stripeRef{name: "probe", gen: obj.Gen, idx: 0}
	s.unpin(obj)

	rm := NewRepairManager(s, 1)
	var scratch repairScratch
	write := rm.repairFetch(repairItem{ref: ref, damaged: []int{healed, drained, dead}, erasures: 1}, &scratch)
	if write == nil {
		t.Fatal("nothing to write back")
	}
	slab := scratch.slabs[0]
	inSlab := 0
	be.mu.Lock()
	for _, f := range be.lent {
		if overlaps(f, slab) {
			inSlab++
		}
	}
	be.mu.Unlock()
	if inSlab != 2 {
		t.Fatalf("%d reads landed in the scratch slab, want the 2 probes that read back", inSlab)
	}
	write()

	if got := node(healed); got != healedOn {
		t.Fatalf("healed block moved from node %d to %d", healedOn, got)
	}
	for _, pos := range []int{drained, dead} {
		n, key, err := s.BlockLocation("probe", 0, pos)
		if err != nil {
			t.Fatal(err)
		}
		if n == drainedOn || n == deadOn {
			t.Fatalf("block %d still on node %d", pos, n)
		}
		got, err := be.MemBackend.Read(n, key)
		if err != nil || !bytes.Equal(got, want[pos]) {
			t.Fatalf("block %d written to node %d: err %v, exact %v", pos, n, err, bytes.Equal(got, want[pos]))
		}
	}
	if m := s.Metrics(); m.RebalancedBlocks != 1 || m.RepairedBlocks != 1 {
		t.Fatalf("%d blocks copied, %d rebuilt; want 1 each", m.RebalancedBlocks, m.RepairedBlocks)
	}
}
