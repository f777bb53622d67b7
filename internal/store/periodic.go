package store

import (
	"sync"
	"time"
)

// periodic is the background loop behind Scrubber, Rebalancer and
// HealthMonitor: one goroutine calling one function every interval. The
// zero value is ready. start and halt are idempotent; halt returns only
// once a pass in flight has finished, and a loop halted before it was
// started never runs.
type periodic struct {
	mu     sync.Mutex
	stop   chan struct{} // non-nil once started
	halted bool
	wg     sync.WaitGroup
}

func (p *periodic) start(interval time.Duration, pass func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil || p.halted {
		return
	}
	stop := make(chan struct{})
	p.stop = stop
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				pass()
			}
		}
	}()
}

func (p *periodic) halt() {
	p.mu.Lock()
	if !p.halted {
		p.halted = true
		if p.stop != nil {
			close(p.stop)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}
