package store

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerStartStopContract pins what RepairManager promises the
// periodic passes registered through every: a second Start is a no-op,
// a pass never overlaps itself, Stop returns only after the pass in
// flight has finished and every concurrent Stop waits for it, a pass
// registered after Stop never runs, and one registered on a started
// manager runs at once.
func TestRunnerStartStopContract(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64})
	rm := NewRepairManager(s, 1)
	var running, passes atomic.Int32
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	rm.every(time.Millisecond, func() {
		if running.Add(1) > 1 {
			t.Error("two runs of one pass overlapped")
		}
		passes.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		running.Add(-1)
	})
	rm.Start()
	rm.Start()
	<-entered

	var stopped sync.WaitGroup
	var returned atomic.Int32
	for i := 0; i < 3; i++ {
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			rm.Stop()
			returned.Add(1)
		}()
	}
	// The pass is parked on release, so no Stop may have returned yet;
	// give a wrong implementation a moment to show itself.
	time.Sleep(20 * time.Millisecond)
	if n := returned.Load(); n != 0 {
		t.Fatalf("%d Stops returned while a pass was still in flight", n)
	}
	close(release)
	stopped.Wait()
	if running.Load() != 0 {
		t.Fatal("Stop returned with a pass still running")
	}
	done := passes.Load()
	rm.every(time.Millisecond, func() { t.Error("a pass registered after Stop ran") })
	rm.Start()
	time.Sleep(10 * time.Millisecond)
	rm.Stop()
	if passes.Load() != done {
		t.Fatal("a stopped manager ran its pass again")
	}

	never := NewRepairManager(s, 1)
	never.Stop()
	never.every(time.Millisecond, func() { t.Error("a pass registered on a manager stopped before Start ran") })
	never.Start()
	time.Sleep(10 * time.Millisecond)
	never.Stop()

	late := NewRepairManager(s, 1)
	late.Start()
	ran := make(chan struct{})
	var once sync.Once
	late.every(time.Millisecond, func() { once.Do(func() { close(ran) }) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a pass registered on a started manager never ran")
	}
	late.Stop()
}

// TestRunnerStopRepairsWhatPassesEnqueued: a pass that finds damage
// while Stop waits for it still gets that damage repaired — Stop closes
// the queue only after the passes have halted, and the workers drain it.
func TestRunnerStopRepairsWhatPassesEnqueued(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64})
	want := randBytes(rand.New(rand.NewSource(39)), 64*10)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("obj", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().(*MemBackend).Delete(node, key); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 1)
	sc := NewScrubber(s, rm, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	rm.every(time.Millisecond, func() {
		once.Do(func() {
			close(entered)
			<-release
			if rep := sc.ScrubOnce(); rep.Enqueued != 1 {
				t.Errorf("scrub enqueued %d stripes, want 1", rep.Enqueued)
			}
		})
	})
	rm.Start()
	<-entered
	stopped := make(chan struct{})
	go func() {
		rm.Stop()
		close(stopped)
	}()
	time.Sleep(20 * time.Millisecond) // let Stop start waiting on the pass
	close(release)
	<-stopped
	if got := s.Metrics().RepairedBlocks; got != 1 {
		t.Fatalf("RepairedBlocks = %d after Stop, want 1", got)
	}
	got, info, err := s.Get("obj")
	if err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after Stop: err %v, degraded %v", err, info.Degraded)
	}
}
