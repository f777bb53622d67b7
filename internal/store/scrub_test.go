package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// scrubAndDrain runs one synchronous scrub pass and waits for the repair
// pool to finish everything it queued.
func scrubAndDrain(t *testing.T, s *Store, rm *RepairManager) ScrubReport {
	t.Helper()
	sc := NewScrubber(s, rm, 0)
	rep := sc.ScrubOnce()
	rm.Drain()
	return rep
}

func TestScrubRepairsDeletedBlock(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	rng := rand.New(rand.NewSource(20))
	want := randBytes(rng, 128*10)
	if err := s.Put("x", want); err != nil {
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("x", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().(*MemBackend).Delete(node, key); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	rep := scrubAndDrain(t, s, rm)
	if rep.Missing != 1 || rep.Enqueued != 1 {
		t.Fatalf("scrub report %+v, want 1 missing / 1 enqueued", rep)
	}
	m := s.Metrics()
	if m.RepairedBlocks != 1 || m.RepairsLight != 1 || m.RepairsHeavy != 0 {
		t.Fatalf("repair metrics %+v, want one light repair", m)
	}
	// The light repair read exactly the r=5 group blocks.
	if m.RepairBlocksRead != 5 {
		t.Fatalf("repair read %d blocks, want 5 (light path)", m.RepairBlocksRead)
	}
	got, info, err := s.Get("x")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-repair Get: err %v", err)
	}
	if info.Degraded {
		t.Fatal("post-repair Get still degraded")
	}
	if rep := scrubAndDrain(t, s, rm); rep.Missing+rep.Corrupt != 0 {
		t.Fatalf("second scrub still finds damage: %+v", rep)
	}
}

func TestScrubRepairsCRCCorruption(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	rng := rand.New(rand.NewSource(21))
	want := randBytes(rng, 128*10)
	if err := s.Put("c", want); err != nil {
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("c", 0, 12) // a global parity
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().(*MemBackend).Corrupt(node, key); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 1)
	rm.Start()
	defer rm.Stop()
	rep := scrubAndDrain(t, s, rm)
	if rep.Corrupt != 1 {
		t.Fatalf("scrub report %+v, want 1 corrupt", rep)
	}
	if m := s.Metrics(); m.RepairedBlocks != 1 {
		t.Fatalf("repaired %d blocks, want 1", m.RepairedBlocks)
	}
	if rep := scrubAndDrain(t, s, rm); rep.Missing+rep.Corrupt != 0 {
		t.Fatalf("second scrub still finds damage: %+v", rep)
	}
}

func TestScrubCatchesSilentCorruption(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	rng := rand.New(rand.NewSource(22))
	want := randBytes(rng, 128*10)
	if err := s.Put("sil", want); err != nil {
		t.Fatal(err)
	}
	// Rewrite block 5 with a *valid* CRC over garbage: only the group
	// syndrome (GroupSyndrome via LocateCorruption) can catch this.
	node, key, err := s.BlockLocation("sil", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	evil := randBytes(rng, 128)
	if err := s.Backend().Write(node, key, FrameBlock(evil)); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 1)
	rm.Start()
	defer rm.Stop()
	rep := scrubAndDrain(t, s, rm)
	if rep.Corrupt != 1 {
		t.Fatalf("scrub report %+v, want 1 silent corrupt", rep)
	}
	got, _, err := s.Get("sil")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-repair Get: err %v", err)
	}
	if rep := scrubAndDrain(t, s, rm); rep.Missing+rep.Corrupt != 0 {
		t.Fatalf("second scrub still finds damage: %+v", rep)
	}
}

func TestNodeDeathRepairRelocates(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 24, Racks: 8, BlockSize: 64})
	rng := rand.New(rand.NewSource(23))
	objs := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("o%d", i)
		objs[name] = randBytes(rng, 64*10+rng.Intn(2000))
		if err := s.Put(name, objs[name]); err != nil {
			t.Fatal(err)
		}
	}
	victim := 0
	s.KillNode(victim)
	rm := NewRepairManager(s, 3)
	rm.Start()
	defer rm.Stop()
	scrubAndDrain(t, s, rm)
	// Every manifest entry now points at a live node, and reads are clean.
	for name, want := range objs {
		got, info, err := s.Get(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: post-repair Get: err %v", name, err)
		}
		if info.Degraded {
			t.Fatalf("%s: still degraded after repair", name)
		}
	}
	for _, st := range s.Objects() {
		for si := 0; si < st.Stripes; si++ {
			for pos := 0; ; pos++ {
				node, _, err := s.BlockLocation(st.Name, si, pos)
				if err != nil {
					break
				}
				if node == victim {
					t.Fatalf("%s stripe %d pos %d still on dead node", st.Name, si, pos)
				}
			}
		}
	}
}

// TestRepairBytesLRCvsRS is the acceptance criterion on the real datapath:
// repairing one lost block costs LRC(10,6,5) strictly fewer bytes read
// than RS(10,4) — 5 blocks against 10.
func TestRepairBytesLRCvsRS(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	payload := randBytes(rng, 256*10) // one full stripe either way
	repairBytes := func(codec Codec) int64 {
		s := newTestStore(t, Config{Codec: codec, BlockSize: 256})
		if err := s.Put("x", payload); err != nil {
			t.Fatal(err)
		}
		node, key, err := s.BlockLocation("x", 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Backend().(*MemBackend).Delete(node, key); err != nil {
			t.Fatal(err)
		}
		rm := NewRepairManager(s, 1)
		rm.Start()
		defer rm.Stop()
		scrubAndDrain(t, s, rm)
		m := s.Metrics()
		if m.RepairedBlocks != 1 {
			t.Fatalf("%s: repaired %d blocks, want 1", codec.Name(), m.RepairedBlocks)
		}
		return m.RepairBytesRead
	}
	lrcBytes := repairBytes(NewXorbasCodec())
	rsBytes := repairBytes(NewRS104Codec())
	if lrcBytes >= rsBytes {
		t.Fatalf("LRC repair read %d bytes, RS %d: locality win missing", lrcBytes, rsBytes)
	}
	if lrcBytes*2 != rsBytes {
		t.Fatalf("LRC repair read %d bytes vs RS %d, want exactly half (5 vs 10 blocks)", lrcBytes, rsBytes)
	}
}

// TestConcurrentStore exercises the whole subsystem under the race
// detector: writers, readers, a node killer and the background scrubber +
// repair pool all running against one store.
func TestConcurrentStore(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 24, Racks: 8, BlockSize: 64})
	rm := NewRepairManager(s, 3)
	NewScrubber(s, rm, 5*time.Millisecond)
	rm.Start()

	const writers = 4
	var wg sync.WaitGroup
	finals := make([][]byte, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			name := fmt.Sprintf("w%d", w)
			var last []byte
			for i := 0; i < 25; i++ {
				last = randBytes(rng, 1+rng.Intn(3000))
				if err := s.Put(name, last); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if got, _, err := s.Get(name); err != nil {
					t.Errorf("writer %d: Get: %v", w, err)
					return
				} else if !bytes.Equal(got, last) {
					t.Errorf("writer %d: read back mismatch", w)
					return
				}
			}
			finals[w] = last
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for i := 0; i < 30; i++ {
			n := rng.Intn(s.Nodes())
			s.KillNode(n)
			time.Sleep(time.Millisecond)
			s.ReviveNode(n)
		}
	}()
	wg.Wait()
	scrubAndDrain(t, s, rm)
	rm.Stop()
	for w := 0; w < writers; w++ {
		if finals[w] == nil {
			continue // writer failed; already reported
		}
		got, _, err := s.Get(fmt.Sprintf("w%d", w))
		if err != nil || !bytes.Equal(got, finals[w]) {
			t.Fatalf("final Get w%d: err %v", w, err)
		}
	}
}

// TestGetDuringRepairRace hammers Get (and same-content overwrites)
// while node kills force the repair pool to relocate blocks: Get must
// snapshot manifests under the lock, and a repair racing an overwrite
// must not splice old-generation keys into the new manifest.
func TestGetDuringRepairRace(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 24, Racks: 8, BlockSize: 64})
	rng := rand.New(rand.NewSource(30))
	want := randBytes(rng, 64*10*3)
	if err := s.Put("hot", want); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	sc := NewScrubber(s, rm, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := s.Get("hot")
				if err != nil {
					t.Errorf("Get under repair: %v", err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Error("Get under repair returned wrong bytes")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // overwrites with identical content exercise the gen check
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Put("hot", want); err != nil {
				t.Errorf("overwrite under repair: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	kills := rand.New(rand.NewSource(31))
	for i := 0; i < 15; i++ {
		n := kills.Intn(s.Nodes())
		s.KillNode(n)
		sc.ScrubOnce()
		rm.Drain()
		s.ReviveNode(n)
	}
	close(stop)
	wg.Wait()
}

func TestScrubberBackgroundLoop(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64})
	rng := rand.New(rand.NewSource(25))
	want := randBytes(rng, 64*10)
	if err := s.Put("bg", want); err != nil {
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("bg", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().(*MemBackend).Delete(node, key); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 1)
	NewScrubber(s, rm, 2*time.Millisecond)
	rm.Start()
	defer rm.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics().RepairedBlocks >= 1 {
			got, info, err := s.Get("bg")
			if err != nil || !bytes.Equal(got, want) || info.Degraded {
				t.Fatalf("post-background-repair Get: err %v info %+v", err, info)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background scrubber never repaired the block")
}
