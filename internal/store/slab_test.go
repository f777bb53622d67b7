package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/pattern"
)

// dirtySlabs leaves the store's pool holding at least four slabs with
// every byte set to 0xA5: whatever the next PUT draws, no byte of it is
// the zero a fresh allocation would have supplied.
func dirtySlabs(s *Store) {
	var held []*slab
	for {
		sl, ok := s.slabs.Get().(*slab)
		if !ok {
			break
		}
		held = append(held, sl)
	}
	for len(held) < 4 {
		held = append(held, s.getSlab())
	}
	for _, sl := range held {
		for i := range sl.mem {
			sl.mem[i] = 0xA5
		}
		s.slabs.Put(sl)
	}
}

// wantFrames is the stored form of an object worked out from the format
// alone, with nothing of the streaming engine in it: each stripe's
// payload cut into k blocks of the stripe's block length, zero-padded,
// encoded by the allocating Encode and framed by FrameBlock.
func wantFrames(t *testing.T, c Codec, bs int, object []byte) [][][]byte {
	t.Helper()
	k := c.K()
	var stripes [][][]byte
	for len(object) > 0 {
		chunk := object[:min(len(object), k*bs)]
		object = object[len(chunk):]
		bl := (len(chunk) + k - 1) / k
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, bl)
			if lo := i * bl; lo < len(chunk) {
				copy(data[i], chunk[lo:])
			}
		}
		stripe, err := c.Encode(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		for pos, payload := range stripe {
			stripe[pos] = FrameBlock(payload)
		}
		stripes = append(stripes, stripe)
	}
	return stripes
}

// TestSlabDirtyPool: a PUT drawing slabs full of another object's bytes
// stores exactly the blocks the format defines — for every object size
// up to a stripe and a block past it (every shape the in-place
// compaction of a short stripe can take) and for a multi-stripe object
// with a short tail. Stale bytes must reach neither the zero padding nor
// the parity computed over it.
func TestSlabDirtyPool(t *testing.T) {
	const bs = 16
	for _, codec := range []Codec{NewXorbasCodec(), NewRS104Codec()} {
		mb := NewMemBackend()
		s := newTestStore(t, Config{Codec: codec, Backend: mb, BlockSize: bs})
		k := codec.K()
		rng := rand.New(rand.NewSource(16))
		sizes := []int{k * bs * 32 / 10}
		for n := 1; n <= (k+1)*bs; n++ {
			sizes = append(sizes, n)
		}
		for _, n := range sizes {
			name := fmt.Sprintf("dirty-%d", n)
			object := randBytes(rng, n)
			dirtySlabs(s)
			if err := s.PutReader(name, bytes.NewReader(object)); err != nil {
				t.Fatalf("%s, %d bytes: %v", codec.Name(), n, err)
			}
			for idx, stripe := range wantFrames(t, codec, bs, object) {
				for pos, want := range stripe {
					node, key, err := s.BlockLocation(name, idx, pos)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := mb.Read(node, key); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s, %d bytes: stripe %d block %d differs from the format's (err %v)", codec.Name(), n, idx, pos, err)
					}
				}
			}
			if got, _, err := s.Get(name); err != nil || !bytes.Equal(got, object) {
				t.Fatalf("%s, %d bytes: Get: err %v", codec.Name(), n, err)
			}
		}
		rm := NewRepairManager(s, 1)
		if rep := NewScrubber(s, rm, 0).ScrubOnce(); rep.Missing+rep.Corrupt+rep.Enqueued != 0 {
			t.Fatalf("%s: scrub after dirty-pool puts: %+v", codec.Name(), rep)
		}
	}
}

// parkingReader serves n bytes, then blocks inside Read until released,
// then overwrites the whole buffer that Read was handed — the buffer a
// failed PutReader left with its abandoned reader goroutine.
type parkingReader struct {
	n        int
	parked   chan struct{} // closed when Read blocks
	release  chan struct{} // closing it lets the blocked Read go on
	scribble chan struct{} // closed once the released Read has written
	spent    bool
}

func (p *parkingReader) Read(b []byte) (int, error) {
	if p.n > 0 {
		m := min(len(b), p.n)
		for i := range b[:m] {
			b[i] = 0x11
		}
		p.n -= m
		return m, nil
	}
	if p.spent {
		return 0, io.EOF
	}
	p.spent = true
	close(p.parked)
	<-p.release
	for i := range b {
		b[i] = 0xEE
	}
	close(p.scribble)
	return len(b), nil
}

// gatedBackend holds every Write until the gate closes.
type gatedBackend struct {
	Backend
	gate <-chan struct{}
}

func (g *gatedBackend) Write(node int, key string, data []byte) error {
	<-g.gate
	return g.Backend.Write(node, key, data)
}

// TestSlabParkedReader: a backend write fails while the source is
// blocked mid-object. PutReader must return that error without waiting
// for the source, and the slab its reader goroutine still holds must
// never reach the pool: when the source wakes and writes into it, a
// second PUT is running, and under -race a shared slab is a reported
// data race (and a corrupted object without it).
func TestSlabParkedReader(t *testing.T) {
	const bs = 64
	mb := NewMemBackend()
	fb := NewFaultBackend(mb, 1)
	src := &parkingReader{
		parked:   make(chan struct{}),
		release:  make(chan struct{}),
		scribble: make(chan struct{}),
	}
	// Writes wait until the source has parked, so the failure always
	// finds the reader goroutine inside Read, a slab in hand.
	s := newTestStore(t, Config{Backend: &gatedBackend{Backend: fb, gate: src.parked}, BlockSize: bs})
	stripe := s.Codec().K() * bs
	src.n = stripe + stripe/2
	faultAll := func(fl Fault) {
		for n := 0; n < s.Nodes(); n++ {
			fb.SetFault(n, fl)
		}
	}
	faultAll(Fault{ErrRate: 1})
	failed := make(chan error, 1)
	go func() { failed <- s.PutReader("doomed", src) }()
	select {
	case err := <-failed:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("PutReader over a failing backend: err %v, want ErrInjected", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("PutReader held a backend-write error hostage to a blocked source")
	}
	faultAll(Fault{})

	want := randBytes(rand.New(rand.NewSource(17)), 3*stripe+stripe/5)
	second := make(chan error, 1)
	go func() { second <- s.PutReader("second", bytes.NewReader(want)) }()
	close(src.release)
	<-src.scribble
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get("second"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("object stored while the abandoned reader woke: err %v, intact %v", err, bytes.Equal(got, want))
	}
	if _, _, err := s.Get("doomed"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("Get of the failed put: err %v, want ErrObjectNotFound", err)
	}
	blocks := 0
	for n := 0; n < s.Nodes(); n++ {
		blocks += mb.BlockCount(n)
	}
	if want := 4 * s.Codec().NStored(); blocks != want {
		t.Fatalf("backend holds %d blocks, want %d (the second object's only)", blocks, want)
	}
}

// TestSlabConcurrentPuts: eight PutReaders at once, sizes straddling
// stripe boundaries, twice over so the second round runs on slabs the
// first returned. Every object reads back exact.
func TestSlabConcurrentPuts(t *testing.T) {
	const bs = 64
	s := newTestStore(t, Config{BlockSize: bs})
	stripe := s.Codec().K() * bs
	sizes := []int{1, bs + 1, stripe - 1, stripe, stripe + 1, 2*stripe - 1, 2*stripe + bs, 3*stripe + stripe/5}
	for round := 0; round < 2; round++ {
		objects := make([][]byte, len(sizes))
		var wg sync.WaitGroup
		for i, n := range sizes {
			objects[i] = randBytes(rand.New(rand.NewSource(int64(100*round+i))), n)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := s.PutReader(fmt.Sprintf("c%d", i), bytes.NewReader(objects[i])); err != nil {
					t.Errorf("round %d, %d bytes: %v", round, len(objects[i]), err)
				}
			}(i)
		}
		wg.Wait()
		for i, want := range objects {
			if got, _, err := s.Get(fmt.Sprintf("c%d", i)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("round %d, %d bytes: Get: err %v, exact %v", round, len(want), err, bytes.Equal(got, want))
			}
		}
	}
}

// discardBackend accepts and forgets every write, as a backend that
// retains nothing of the caller's buffer (DirBackend, the netblock
// client) does from the allocator's point of view. With drop unset it
// is the MemBackend it wraps.
type discardBackend struct {
	*MemBackend
	drop bool
}

func (d *discardBackend) Write(node int, key string, data []byte) error {
	if d.drop {
		return nil
	}
	return d.MemBackend.Write(node, key, data)
}

// allocBytes returns the heap bytes f allocates (live or not), as the
// process-wide runtime.MemStats.TotalAlloc delta.
func allocBytes(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// TestSlabAllocationContract pins what the pool buys, so it cannot
// quietly stop: once the pool is warm a PUT allocates no slab — under
// 1 MiB for a 32 MiB object at 1 MiB blocks (53 MiB before the store kept
// its slabs), under one block for a one-block object — and a repair
// write-back allocates no block. The PUT figures are medians: a
// sync.Pool keeps one item per P where no other P can reach it, so the
// odd PUT still misses until every P has one.
func TestSlabAllocationContract(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector, and its sync.Pool drops items at random")
	}
	if testing.Short() {
		t.Skip("streams 32 MiB objects; skipped with -short")
	}
	medianPut := func(s *Store, size int) int {
		const rounds = 9
		allocs := make([]int, rounds)
		for i := range allocs {
			var err error
			allocs[i] = allocBytes(func() { err = s.PutReader("obj", pattern.NewReader(int64(size))) })
			if err != nil {
				t.Fatal(err)
			}
		}
		sort.Ints(allocs)
		return allocs[rounds/2]
	}
	large := newTestStore(t, Config{Backend: &discardBackend{MemBackend: NewMemBackend(), drop: true}, BlockSize: 1 << 20})
	if got := medianPut(large, 32<<20); got >= 1<<20 {
		t.Errorf("32 MiB PUT at 1 MiB blocks allocates %d bytes, want < 1 MiB", got)
	}
	small := newTestStore(t, Config{Backend: &discardBackend{MemBackend: NewMemBackend(), drop: true}, BlockSize: 64 << 10})
	if got := medianPut(small, 64<<10); got >= 64<<10 {
		t.Errorf("64 KiB PUT at 64 KiB blocks allocates %d bytes, want < 64 KiB", got)
	}

	// One lost block, rebuilt and written back over and over by one
	// worker's scratch (the dropped write leaves it lost).
	const bs = 1 << 20
	be := &discardBackend{MemBackend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: be, BlockSize: bs})
	if err := s.PutReader("r", pattern.NewReader(int64(s.Codec().K()*bs))); err != nil {
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("r", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Delete(node, key); err != nil {
		t.Fatal(err)
	}
	be.drop = true
	v, _ := s.db.Get(objKey("r"))
	gen := v.(*objectInfo).Gen
	rm := NewRepairManager(s, 1)
	var scratch repairScratch
	repair := func() {
		write := rm.repairFetch(repairItem{ref: stripeRef{name: "r", gen: gen}, damaged: []int{3}}, &scratch)
		if write == nil {
			t.Fatal("repairFetch found nothing to write back")
		}
		write()
	}
	repair() // the scratch is two slabs, taken in turn: size both
	repair()
	const rounds = 8
	got := allocBytes(func() {
		for i := 0; i < rounds; i++ {
			repair()
		}
	})
	if got >= bs {
		t.Errorf("%d single-block repairs allocate %d bytes, want under one %d-byte block", rounds, got, bs)
	}
	if m := s.Metrics(); m.RepairedBlocks != rounds+2 {
		t.Errorf("repaired %d blocks, want %d", m.RepairedBlocks, rounds+2)
	}
}
