package store

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPeriodicStartHaltContract pins what Scrubber, Rebalancer and
// HealthMonitor promise through their Start/Stop: a second start is a
// no-op, halt returns only after the pass in flight has finished, every
// concurrent halt waits for it, and a halted loop never starts.
func TestPeriodicStartHaltContract(t *testing.T) {
	var p periodic
	var running, passes atomic.Int32
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	pass := func() {
		if running.Add(1) > 1 {
			t.Error("two passes ran at once: start is not idempotent")
		}
		passes.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		running.Add(-1)
	}
	p.start(time.Millisecond, pass)
	p.start(time.Millisecond, pass)
	<-entered

	var halted sync.WaitGroup
	var returned atomic.Int32
	for i := 0; i < 3; i++ {
		halted.Add(1)
		go func() {
			defer halted.Done()
			p.halt()
			returned.Add(1)
		}()
	}
	// The pass is parked on release, so no halt may have returned yet;
	// give a wrong implementation a moment to show itself.
	time.Sleep(20 * time.Millisecond)
	if n := returned.Load(); n != 0 {
		t.Fatalf("%d halts returned while a pass was still in flight", n)
	}
	close(release)
	halted.Wait()
	if running.Load() != 0 {
		t.Fatal("halt returned with a pass still running")
	}
	done := passes.Load()
	p.start(time.Millisecond, pass)
	p.halt()
	if passes.Load() != done {
		t.Fatal("a halted loop ran again")
	}

	var never periodic
	never.halt()
	never.start(time.Millisecond, func() { t.Error("a loop halted before start ran") })
	never.halt()
}
