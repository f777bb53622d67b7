package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestUnrecoverableStripePartialProgress is the documented repair-worker
// behavior on a stripe past the data-loss edge: the blocks that still
// have a repair are rebuilt and persisted, the rest stay missing and the
// next scrub re-reports them. Group 2 (data 5..9 + local parity 15) is
// erased entirely — fatal for LRC(10,6,5) — plus block 0, which stays
// light-repairable from the rest of group 1.
func TestUnrecoverableStripePartialProgress(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	rng := rand.New(rand.NewSource(60))
	if err := s.Put("doomed", randBytes(rng, 128*10)); err != nil {
		t.Fatal(err)
	}
	lost := []int{0, 5, 6, 7, 8, 9, 15}
	for _, pos := range lost {
		node, key, err := s.BlockLocation("doomed", 0, pos)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Backend().Delete(node, key); err != nil {
			t.Fatal(err)
		}
	}
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	rep := scrubAndDrain(t, s, rm)
	if rep.Missing != len(lost) {
		t.Fatalf("first scrub found %d missing, want %d", rep.Missing, len(lost))
	}
	m := s.Metrics()
	if m.RepairedBlocks != 1 {
		t.Fatalf("repaired %d blocks, want exactly the light-repairable one", m.RepairedBlocks)
	}
	// The rebuilt block 0 is durably back in the backend.
	node, key, err := s.BlockLocation("doomed", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.Backend().Read(node, key)
	if err != nil {
		t.Fatalf("rebuilt block 0 not persisted: %v", err)
	}
	if _, err := UnframeBlock(raw); err != nil {
		t.Fatalf("rebuilt block 0 corrupt: %v", err)
	}
	// The next scrub re-reports exactly the unrecoverable remainder.
	rep2 := scrubAndDrain(t, s, rm)
	if rep2.Missing != len(lost)-1 {
		t.Fatalf("second scrub found %d missing, want %d", rep2.Missing, len(lost)-1)
	}
	if _, _, err := s.Get("doomed"); err == nil {
		t.Fatal("Get of an unrecoverable object should fail")
	}
}

// TestScrubPresenceRepairsNodeKill: the manifest-only walk finds a dead
// node's blocks without a single backend read and feeds the repair queue.
func TestScrubPresenceRepairsNodeKill(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 24, Racks: 8, BlockSize: 64})
	rng := rand.New(rand.NewSource(61))
	want := randBytes(rng, 64*10*2)
	if err := s.Put("p", want); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s.BlockLocation("p", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(victim)
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	sc := NewScrubber(s, rm, 0)
	rep := sc.ScrubPresence()
	if rep.Missing == 0 || rep.Enqueued == 0 {
		t.Fatalf("presence scrub report %+v, want damage enqueued", rep)
	}
	if got := s.Metrics().ScrubBlocksRead; got != 0 {
		t.Fatalf("presence scrub read %d blocks, want 0", got)
	}
	rm.Drain()
	s.ReviveNode(victim)
	if rep := sc.ScrubOnce(); rep.Missing+rep.Corrupt != 0 {
		t.Fatalf("full scrub after presence repair still finds damage: %+v", rep)
	}
	got, info, err := s.Get("p")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-repair Get: err %v", err)
	}
	if info.Degraded {
		t.Fatal("post-repair Get still degraded")
	}
}

// TestPacedRepairRate is the pacing acceptance check: a rate-limited
// node-kill repair's measured backend read rate lands within 15% of the
// configured budget, while foreground Gets (never paced) stay fast.
func TestPacedRepairRate(t *testing.T) {
	const rate = 4 << 20 // 4 MB/s repair read budget
	s := newTestStore(t, Config{BlockSize: 64 << 10, RepairRateBytes: rate})
	rng := rand.New(rand.NewSource(62))
	if err := s.Put("big", randBytes(rng, 10<<20)); err != nil {
		t.Fatal(err)
	}
	probe := randBytes(rng, 256<<10)
	if err := s.Put("probe", probe); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s.BlockLocation("big", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(victim)
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	sc := NewScrubber(s, rm, 0)
	sc.ScrubPresence()

	// Foreground Gets while the paced repair drains.
	done := make(chan struct{})
	var gets int
	var getTime time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			t0 := time.Now()
			got, _, err := s.Get("probe")
			getTime += time.Since(t0)
			if err != nil || !bytes.Equal(got, probe) {
				t.Errorf("foreground Get under paced repair: %v", err)
				return
			}
			gets++
		}
	}()
	start := time.Now()
	rm.Drain()
	elapsed := time.Since(start)
	close(done)
	wg.Wait()

	m := s.Metrics()
	if m.RepairedBlocks == 0 {
		t.Fatal("paced repair rebuilt nothing")
	}
	measured := float64(m.RepairBytesRead) / elapsed.Seconds()
	if measured > 1.15*rate {
		t.Fatalf("measured repair read rate %.0f B/s exceeds budget %d by >15%%", measured, rate)
	}
	// The lower bound is a timing assertion; the race detector's
	// instrumentation slows the decode enough to blur it.
	if !raceEnabled && measured < 0.85*rate {
		t.Fatalf("measured repair read rate %.0f B/s more than 15%% under budget %d", measured, rate)
	}
	if gets == 0 {
		t.Fatal("no foreground Get completed during the paced repair")
	}
	if !raceEnabled {
		if avg := getTime / time.Duration(gets); avg > 250*time.Millisecond {
			t.Fatalf("foreground Get averaged %v under paced repair, want unpaced latency", avg)
		}
	}
}

// TestConcurrentStorePaced is the race-detector workout with both
// limiters engaged: writers, readers, a node killer, the background
// scrubber, presence scrubs and the paced repair pool all share one
// store. Budgets are set high so pacing code runs without slowing the
// test.
func TestConcurrentStorePaced(t *testing.T) {
	s := newTestStore(t, Config{
		Nodes: 24, Racks: 8, BlockSize: 64,
		RepairRateBytes: 128 << 20,
		ScrubRateBytes:  128 << 20,
	})
	rm := NewRepairManager(s, 3)
	sc := NewScrubber(s, rm, 3*time.Millisecond)
	rm.Start()

	const writers = 3
	var wg sync.WaitGroup
	finals := make([][]byte, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			name := fmt.Sprintf("pw%d", w)
			var last []byte
			for i := 0; i < 15; i++ {
				last = randBytes(rng, 1+rng.Intn(2500))
				if err := s.Put(name, last); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if got, _, err := s.Get(name); err != nil || !bytes.Equal(got, last) {
					t.Errorf("writer %d: read back: %v", w, err)
					return
				}
			}
			finals[w] = last
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(901))
		for i := 0; i < 20; i++ {
			n := rng.Intn(s.Nodes())
			s.KillNode(n)
			sc.ScrubPresence()
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
		got, _, err := s.Get(fmt.Sprintf("pw%d", w))
		if err != nil || !bytes.Equal(got, finals[w]) {
			t.Fatalf("final Get pw%d: err %v", w, err)
		}
	}
}

// TestPlanReadsCallerOwnsSlice: the read set PlanReads returns belongs
// to the caller. Overwriting it and planning the same pattern again must
// yield the original plan, for arbitrary availability patterns, light
// flags included; a plan reads only available blocks.
func TestPlanReadsCallerOwnsSlice(t *testing.T) {
	for _, codec := range []Codec{NewXorbasCodec(), NewRS104Codec()} {
		n := codec.NStored()
		rng := rand.New(rand.NewSource(63))
		for trial := 0; trial < 200; trial++ {
			avail := make([]bool, n)
			for i := range avail {
				avail[i] = rng.Intn(4) > 0
			}
			pos := rng.Intn(n)
			avail[pos] = false
			first, light1, err1 := codec.PlanReads(pos, avail)
			want := append([]int(nil), first...)
			for i := range first {
				first[i] = -1
			}
			second, light2, err2 := codec.PlanReads(pos, avail)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: re-plan error mismatch: %v vs %v", codec.Name(), err1, err2)
			}
			if err1 != nil {
				continue
			}
			if light1 != light2 || !slices.Equal(second, want) {
				t.Fatalf("%s: re-plan of pos %d after overwriting the first plan: %v light=%v, want %v light=%v",
					codec.Name(), pos, second, light2, want, light1)
			}
			for _, j := range second {
				if j != pos && !avail[j] {
					t.Fatalf("%s: plan for %d reads unavailable block %d", codec.Name(), pos, j)
				}
			}
		}
	}
}
