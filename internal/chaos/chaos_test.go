package chaos

import (
	"bytes"
	"context"
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

// recordingTarget captures every step the runner fires, in order.
type recordingTarget struct {
	mu  sync.Mutex
	ops []string
}

func (r *recordingTarget) add(s string) error {
	r.mu.Lock()
	r.ops = append(r.ops, s)
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

// TestRunnerSchedule checks ordering and dispatch: steps listed out of
// order fire sorted by offset, OpHeal maps to a zero-fault SetFault,
// and an unknown op surfaces as an error without stopping the walk.
func TestRunnerSchedule(t *testing.T) {
	rec := &recordingTarget{}
	r := NewRunner(rec, Schedule{
		{At: 30 * time.Millisecond, Node: 2, Op: OpHeal},
		{At: 10 * time.Millisecond, Node: 1, Op: OpKill},
		{At: 20 * time.Millisecond, Node: 2, Op: OpFault, Fault: store.Fault{ErrRate: 1}},
		{At: 40 * time.Millisecond, Node: 1, Op: OpRestart},
	})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"kill 1", "fault 2", "heal 2", "restart 1"}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.ops) != len(want) {
		t.Fatalf("ops = %v, want %v", rec.ops, want)
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", rec.ops, want)
		}
	}
}

func TestRunnerUnknownOp(t *testing.T) {
	rec := &recordingTarget{}
	r := NewRunner(rec, Schedule{{Op: Op("melt"), Node: 1}})
	if err := r.Run(context.Background()); err == nil {
		t.Fatal("unknown op did not error")
	}
}

func TestRunnerContextCancel(t *testing.T) {
	rec := &recordingTarget{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(rec, Schedule{{At: time.Hour, Node: 0, Op: OpKill}})
	start := time.Now()
	if err := r.Run(ctx); err == nil {
		t.Fatal("canceled run did not error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("canceled run kept sleeping")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.ops) != 0 {
		t.Fatalf("canceled run fired %v", rec.ops)
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
		DialTimeout:        250 * time.Millisecond,
		Timeout:            2 * time.Second,
		Retries:            1,
		RetryBackoff:       2 * time.Millisecond,
		BreakerThreshold:   3,
		BreakerCooldown:    50 * time.Millisecond,
		BreakerMaxCooldown: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	s, err := store.New(store.Config{
		Backend:       cl.Backend(),
		Nodes:         nodes,
		BlockSize:     4 << 10,
		HedgeQuantile: 0.9,
		HedgeMinDelay: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rm := store.NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	sc := store.NewScrubber(s, rm, time.Hour)
	mon := store.NewHealthMonitor(s, rm, sc, store.MonitorConfig{
		Interval:        20 * time.Millisecond,
		FailThreshold:   3,
		ReviveThreshold: 2,
	})
	mon.Start()
	defer mon.Stop()

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
	waitFor(t, 15*time.Second, "auto-revival", func() bool { return s.Alive(victim) })
	if got := s.Metrics().AutoRevivals; got < 1 {
		t.Fatalf("AutoRevivals = %d, want >= 1", got)
	}

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
