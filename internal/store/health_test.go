package store

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealthMonitorAutoDeathRepairRevival is the self-healing loop in
// miniature: a scripted node death is detected by the monitor (no
// operator KillNode), repair drains the damage to live nodes, the node
// heals, and the monitor revives it — with the object byte-exact at
// every stage.
func TestHealthMonitorAutoDeathRepairRevival(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(), 1)
	s, err := New(Config{Backend: fb, Nodes: 20, BlockSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	want := patternBytes(t, size)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}

	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	sc := NewScrubber(s, rm, time.Hour) // no background walks; the monitor triggers scrubs
	mon := NewHealthMonitor(s, rm, sc, MonitorConfig{
		Interval:        10 * time.Millisecond,
		FailThreshold:   3,
		ReviveThreshold: 2,
	})
	mon.Start()
	defer mon.Stop()

	const victim = 2
	fb.SetFault(victim, Fault{ErrRate: 1})

	// AutoDeaths, not !Alive: the count moves once the death's presence
	// scrub has enqueued the dead node's stripes, so the Drain below
	// cannot run ahead of them.
	waitFor(t, 10*time.Second, "auto-death", func() bool {
		return s.Metrics().AutoDeaths >= 1 && !s.Alive(victim)
	})
	rm.Drain()
	waitFor(t, 10*time.Second, "repair to land", func() bool {
		return s.Metrics().RepairedBlocks > 0
	})
	got, _, err := s.Get("obj")
	if err != nil {
		t.Fatalf("get with dead node: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("get with dead node returned wrong bytes")
	}

	// Heal: the monitor revives without operator action.
	fb.SetFault(victim, Fault{})
	waitFor(t, 10*time.Second, "auto-revival", func() bool { return s.Alive(victim) })
	if got := s.Metrics().AutoRevivals; got < 1 {
		t.Fatalf("AutoRevivals = %d, want >= 1", got)
	}
	got, _, err = s.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("get after revival returned wrong bytes")
	}
}

// TestHealthMonitorFlapDamping scripts a node that fails probes in
// bursts shorter than the fail threshold: the monitor must never flip
// it dead.
func TestHealthMonitorFlapDamping(t *testing.T) {
	s, err := New(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	probe := func(node int) error {
		if node != 0 {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls%3 == 0 {
			return nil // every third probe succeeds: streaks never reach 3
		}
		return ErrInjected
	}
	mon := NewHealthMonitor(s, nil, nil, MonitorConfig{
		Interval:      5 * time.Millisecond,
		FailThreshold: 3,
		Probe:         probe,
	})
	mon.Start()
	time.Sleep(200 * time.Millisecond)
	mon.Stop()
	if !s.Alive(0) {
		t.Fatal("flapping node below the fail threshold was marked dead")
	}
	if got := s.Metrics().AutoDeaths; got != 0 {
		t.Fatalf("AutoDeaths = %d, want 0", got)
	}
}

// TestWriteDegradedThreshold kills nodes until a full stripe no longer
// fits and checks WriteDegraded flips exactly at the codec's stored
// width.
func TestWriteDegradedThreshold(t *testing.T) {
	s, err := New(Config{Nodes: 20})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Codec().NStored() // 16 for LRC(10,6,5)
	for i := 0; i < 20-n; i++ {
		s.KillNode(i)
		if s.WriteDegraded() {
			t.Fatalf("WriteDegraded with %d live nodes, threshold is %d", 20-i-1, n)
		}
	}
	s.KillNode(19)
	if !s.WriteDegraded() {
		t.Fatalf("not WriteDegraded with %d live nodes, threshold is %d", n-1, n)
	}
	s.ReviveNode(19)
	if s.WriteDegraded() {
		t.Fatal("WriteDegraded after revival")
	}
}

// TestNodeHealthOverlay checks the store's NodeHealth merges its
// liveness record over the backend view (untracked for MemBackend).
func TestNodeHealthOverlay(t *testing.T) {
	s, err := New(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(2)
	infos := s.NodeHealth()
	if len(infos) != 4 {
		t.Fatalf("got %d nodes, want 4", len(infos))
	}
	for i, info := range infos {
		if info.Node != i {
			t.Fatalf("node %d reported as %d", i, info.Node)
		}
		if info.State != "untracked" {
			t.Fatalf("MemBackend node state = %q, want untracked", info.State)
		}
		if wantAlive := i != 2; info.Alive != wantAlive {
			t.Fatalf("node %d alive = %v", i, info.Alive)
		}
	}
	if s.LiveNodes() != 3 {
		t.Fatalf("LiveNodes = %d, want 3", s.LiveNodes())
	}
}

// TestHedgedReadBeatsStraggler puts one slow node in the cluster and
// checks the hedge fires: the read returns byte-exact well before the
// sum of straggler stalls, reconstruction wins at least once, and the
// counters say so.
func TestHedgedReadBeatsStraggler(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(), 1)
	s, err := New(Config{
		Backend:       fb,
		Nodes:         20,
		BlockSize:     16 << 10,
		HedgeQuantile: 0.9,
		HedgeMinDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	want := patternBytes(t, size)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	// Warm the latency histogram with a clean read.
	if _, _, err := s.Get("obj"); err != nil {
		t.Fatal(err)
	}

	const stall = 250 * time.Millisecond
	fb.SetFault(4, Fault{Latency: stall})
	start := time.Now()
	got, info, err := s.Get("obj")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hedged read returned wrong bytes")
	}
	m := s.Metrics()
	if m.HedgeFires < 1 {
		t.Fatalf("HedgeFires = %d, want >= 1 (read took %v)", m.HedgeFires, elapsed)
	}
	if m.HedgeWins < 1 {
		t.Fatalf("HedgeWins = %d, want >= 1", m.HedgeWins)
	}
	if !info.Degraded {
		t.Fatal("a hedged read is a degraded read; ReadInfo.Degraded = false")
	}
	// ~6 stripes and the slow node holds a block in most of them: an
	// un-hedged read would stack several stalls serially. The hedged
	// read must land in well under two stall lengths.
	if elapsed > 2*stall {
		t.Fatalf("hedged read took %v with a %v straggler", elapsed, stall)
	}
}
