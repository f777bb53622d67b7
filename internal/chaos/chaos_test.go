package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/netblock"
	"repro/internal/pattern"
	"repro/internal/store"
)

// epoch is where every manual clock starts.
var epoch = time.Unix(1000, 0)

// manualClock is a Clock that moves only when the test moves it. A
// Runner blocking in After announces the deadline on parked; the test
// sets the clock to it, and the runner fires exactly there.
type manualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
	parked chan time.Time
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: epoch, parked: make(chan time.Time, 1)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	tm := manualTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, tm)
	c.mu.Unlock()
	c.parked <- tm.at
	return tm.ch
}

// set moves the clock to t and fires every timer due by then.
func (c *manualClock) set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
	kept := c.timers[:0]
	for _, tm := range c.timers {
		if tm.at.After(t) {
			kept = append(kept, tm)
			continue
		}
		tm.ch <- t
	}
	c.timers = kept
}

// runVirtual runs r on clk, jumping the clock to each deadline the
// runner parks on: the whole schedule is walked at its exact virtual
// offsets in no wall time.
func runVirtual(ctx context.Context, r *Runner, clk *manualClock) error {
	r.clock = clk
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	for {
		select {
		case at := <-clk.parked:
			clk.set(at)
		case err := <-done:
			return err
		}
	}
}

// recordingTarget captures every step the runner fires, in order,
// stamped with its virtual offset on clk.
type recordingTarget struct {
	clk *manualClock
	mu  sync.Mutex
	ops []string
}

func newRecorder() *recordingTarget { return &recordingTarget{clk: newManualClock()} }

func (r *recordingTarget) add(s string) error {
	r.mu.Lock()
	r.ops = append(r.ops, fmt.Sprintf("%s @%s", s, r.clk.Now().Sub(epoch)))
	r.mu.Unlock()
	return nil
}

func (r *recordingTarget) Kill(node int) error    { return r.add(fmt.Sprintf("kill %d", node)) }
func (r *recordingTarget) Restart(node int) error { return r.add(fmt.Sprintf("restart %d", node)) }
func (r *recordingTarget) SetFault(node int, f store.Fault) error {
	if f == (store.Fault{}) {
		return r.add(fmt.Sprintf("heal %d", node))
	}
	return r.add(fmt.Sprintf("fault %d", node))
}

func (r *recordingTarget) check(t *testing.T, want ...string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if fmt.Sprint(r.ops) != fmt.Sprint(want) {
		t.Fatalf("ops = %q, want %q", r.ops, want)
	}
}

// TestRunnerSchedule checks ordering, dispatch and timing: steps listed
// out of order fire sorted by offset (same-instant steps in listed
// order), each exactly at its virtual offset, and OpHeal maps to a
// zero-fault SetFault. The offsets are hours: only a clock that never
// waits on the wall finishes this test.
func TestRunnerSchedule(t *testing.T) {
	rec := newRecorder()
	r := NewRunner(rec, Schedule{
		{At: 3 * time.Hour, Node: 2, Op: OpHeal},
		{At: time.Hour, Node: 1, Op: OpKill},
		{At: 2 * time.Hour, Node: 2, Op: OpFault, Fault: store.Fault{ErrRate: 1}},
		{At: 4 * time.Hour, Node: 1, Op: OpRestart},
		{At: 4 * time.Hour, Node: 5, Op: OpKill},
	})
	if err := runVirtual(context.Background(), r, rec.clk); err != nil {
		t.Fatal(err)
	}
	rec.check(t, "kill 1 @1h0m0s", "fault 2 @2h0m0s", "heal 2 @3h0m0s", "restart 1 @4h0m0s", "kill 5 @4h0m0s")
}

// TestRunnerUnknownOp: an unknown op surfaces as an error without
// stopping the walk.
func TestRunnerUnknownOp(t *testing.T) {
	rec := newRecorder()
	r := NewRunner(rec, Schedule{{Op: Op("melt"), Node: 1}, {At: time.Second, Op: OpKill, Node: 2}})
	if err := runVirtual(context.Background(), r, rec.clk); err == nil {
		t.Fatal("unknown op did not error")
	}
	rec.check(t, "kill 2 @1s")
}

// TestRunnerContextCancel: cancelling a run parked on its next step
// returns ctx's error at once, with only the steps before it fired.
func TestRunnerContextCancel(t *testing.T) {
	rec := newRecorder()
	r := NewRunner(rec, Schedule{
		{At: time.Hour, Node: 0, Op: OpKill},
		{At: 2 * time.Hour, Node: 1, Op: OpKill},
	})
	r.clock = rec.clk
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	rec.clk.set(<-rec.clk.parked)
	<-rec.clk.parked // the first kill fired; parked on the second
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	rec.check(t, "kill 0 @1h0m0s")
}

// TestRunnerCancelledFiresNothing: a run whose ctx is already done fires
// no step, not even the ones already due at offset 0.
func TestRunnerCancelledFiresNothing(t *testing.T) {
	rec := newRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(rec, Schedule{
		{At: 0, Node: 0, Op: OpKill},
		{At: 0, Node: 1, Op: OpFault, Fault: store.Fault{ErrRate: 1}},
		{At: time.Hour, Node: 2, Op: OpRestart},
	})
	if err := runVirtual(ctx, r, rec.clk); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	rec.check(t)
}

// faultTable is a Target over a store.FaultBackend's static fault table,
// which a Schedule turns into a time-varying one.
type faultTable struct{ fb *store.FaultBackend }

func (faultTable) Kill(int) error    { return errors.ErrUnsupported }
func (faultTable) Restart(int) error { return errors.ErrUnsupported }
func (t faultTable) SetFault(node int, f store.Fault) error {
	t.fb.SetFault(node, f)
	return nil
}

// TestFaultScheduleMode walks a FaultBackend through healthy → dead →
// healed on a manual clock, checking the backend between steps: the
// Schedule is the time-varying script, the backend holds only what is in
// force now. No real sleeps.
func TestFaultScheduleMode(t *testing.T) {
	fb := store.NewFaultBackend(store.NewMemBackend(), 1)
	clk := newManualClock()
	r := NewRunner(faultTable{fb}, Schedule{
		{At: 100 * time.Millisecond, Node: 3, Op: OpFault, Fault: store.Fault{ErrRate: 1}},
		{At: 300 * time.Millisecond, Node: 3, Op: OpHeal},
	})
	r.clock = clk
	done := make(chan error, 1)
	go func() { done <- r.Run(context.Background()) }()

	at := <-clk.parked
	if at != epoch.Add(100*time.Millisecond) {
		t.Fatalf("runner parked until %v, want the first step's offset", at.Sub(epoch))
	}
	if err := fb.CheckNode(3); err != nil {
		t.Fatalf("node healthy before first step, got: %v", err)
	}
	clk.set(at)
	at = <-clk.parked // the fault is installed; parked on the heal
	if err := fb.CheckNode(3); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("node should fail inside the ErrRate-1 window, got: %v", err)
	}
	if err := fb.Write(3, "k", []byte("x")); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("write should fail inside the ErrRate-1 window, got: %v", err)
	}
	// Other nodes are untouched by node 3's schedule.
	if err := fb.CheckNode(4); err != nil {
		t.Fatalf("unrelated node failed: %v", err)
	}
	clk.set(at)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := fb.CheckNode(3); err != nil {
		t.Fatalf("node should be healed after the last step, got: %v", err)
	}
}

func patternBytes(t *testing.T, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(pattern.NewReader(int64(size))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSelfHealingUnderTraffic is the acceptance scenario end to end:
// a real loopback TCP fleet serves a store through the HTTP gateway
// under concurrent PUT/GET traffic while a chaos schedule SIGKILLs a
// node. The monitor must mark it dead with no operator action, repair
// must drain, the restarted (empty) process must be re-marked alive —
// and every GET during the whole window must come back byte-exact or
// as a clean typed error, never corrupt or truncated.
func TestSelfHealingUnderTraffic(t *testing.T) {
	const nodes = 20
	cl, err := NewCluster(nodes, netblock.Options{
		DialTimeout: 250 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	s, err := store.New(store.Config{
		Backend:   cl.Backend(),
		Nodes:     nodes,
		BlockSize: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rm := store.NewRepairManager(s, 2)
	sc := store.NewScrubber(s, rm, 0)
	store.NewHealthMonitor(s, sc, store.MonitorConfig{Interval: 20 * time.Millisecond})
	rm.Start()
	defer rm.Stop()

	g, err := gateway.New(gateway.Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	// Seed objects through the front door.
	const objSize = 48 << 10
	want := patternBytes(t, objSize)
	seeded := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range seeded {
		if code := httpPut(t, srv.URL+"/t/acme/"+k, want); code != 200 {
			t.Fatalf("seed put %q = %d", k, code)
		}
	}

	// Live traffic for the whole scenario: readers verify every GET is
	// byte-exact or a clean typed error; writers keep appending new
	// objects (shed or store-failed writes are fine — acked ones must
	// read back exact, checked at the end).
	stop := make(chan struct{})
	var badReads atomic.Int64
	var firstBad atomic.Value
	var acked sync.Map // name -> true for 200-acked writer puts
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cli := &http.Client{Timeout: 30 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := seeded[(r+i)%len(seeded)]
				resp, err := cli.Get(srv.URL + "/t/acme/" + k)
				if err != nil {
					continue // transport-level trouble is the client's, not a corruption
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == 200:
					if rerr != nil {
						continue
					}
					if !bytes.Equal(body, want) {
						badReads.Add(1)
						firstBad.CompareAndSwap(nil, fmt.Sprintf("GET %s: 200 with %d wrong/truncated bytes", k, len(body)))
					}
				case resp.StatusCode == 503 || resp.StatusCode == 500:
					// Clean typed errors: degraded service. Never silent
					// corruption — those are caught above.
				default:
					badReads.Add(1)
					firstBad.CompareAndSwap(nil, fmt.Sprintf("GET %s: unexpected status %d", k, resp.StatusCode))
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("w%03d", i)
			if code := httpPut(t, srv.URL+"/t/acme/"+name, want); code == 200 {
				acked.Store(name, true)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Phase 1: SIGKILL node 3 under traffic; the monitor must confirm
	// the death and repair must drain, all with zero operator action.
	const victim = 3
	if err := NewRunner(cl, Schedule{
		{At: 100 * time.Millisecond, Node: victim, Op: OpKill},
	}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Wait on AutoDeaths, not !Alive: the monitor counts a death only
	// after its presence scrub has enqueued the victim's stripes, so the
	// Drain below cannot slip in between the kill and the enqueue.
	waitFor(t, 15*time.Second, "auto-death", func() bool {
		return s.Metrics().AutoDeaths >= 1 && !s.Alive(victim)
	})
	rm.Drain()
	if s.Metrics().RepairedBlocks == 0 {
		t.Fatal("no blocks repaired after auto-death")
	}

	// Phase 2: restart the node (fresh empty process on a new port);
	// the monitor must re-mark it alive, again with no operator action.
	if err := NewRunner(cl, Schedule{
		{At: 50 * time.Millisecond, Node: victim, Op: OpRestart},
	}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// AutoRevivals, not Alive: liveness flips before the revival is
	// counted, so only the counter says the re-check is queued.
	waitFor(t, 15*time.Second, "auto-revival", func() bool {
		return s.Metrics().AutoRevivals >= 1 && s.Alive(victim)
	})

	// Let traffic run a beat on the healed cluster, then stop it.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := badReads.Load(); n > 0 {
		t.Fatalf("%d corrupt/unclean reads during chaos; first: %v", n, firstBad.Load())
	}

	// Convergence: a full scrub finds nothing to fix, and every acked
	// write reads back byte-exact.
	rm.Drain()
	rep := sc.ScrubOnce()
	rm.Drain()
	if rep2 := sc.ScrubOnce(); rep2.Missing != 0 || rep2.Corrupt != 0 {
		t.Fatalf("cluster did not converge: second scrub found %+v (first %+v)", rep2, rep)
	}
	ackedCount := 0
	acked.Range(func(k, _ any) bool {
		ackedCount++
		name := k.(string)
		var buf bytes.Buffer
		if _, err := s.GetWriter("acme/"+name, &buf); err != nil {
			t.Fatalf("acked write %q unreadable: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("acked write %q read back wrong bytes", name)
		}
		return true
	})
	t.Logf("converged: %d acked writer puts verified, metrics %+v", ackedCount, s.Metrics())
}

// httpPut PUTs body and returns the status code (0 on transport error).
func httpPut(t *testing.T, url string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
