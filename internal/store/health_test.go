package store

import (
	"bytes"
	"sync"
	"sync/atomic"
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
	sc := NewScrubber(s, rm, 0) // no background walks; the monitor triggers scrubs
	NewHealthMonitor(s, sc, MonitorConfig{Interval: 10 * time.Millisecond})
	rm.Start()
	defer rm.Stop()

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
	// AutoRevivals, not Alive: the count moves once the revival's
	// presence walk has queued the node's stripes for re-check, while
	// liveness flips before the count does.
	waitFor(t, 10*time.Second, "auto-revival", func() bool {
		return s.Metrics().AutoRevivals >= 1 && s.Alive(victim)
	})
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
	rm := NewRepairManager(s, 0)
	NewHealthMonitor(s, NewScrubber(s, rm, 0), MonitorConfig{
		Interval: 5 * time.Millisecond,
		Probe:    probe,
	})
	rm.Start()
	time.Sleep(200 * time.Millisecond)
	rm.Stop()
	if !s.Alive(0) {
		t.Fatal("flapping node below the fail threshold was marked dead")
	}
	if got := s.Metrics().AutoDeaths; got != 0 {
		t.Fatalf("AutoDeaths = %d, want 0", got)
	}
}

// TestRevivalDoesNotBlindMonitor: a revival's re-check of the revived
// node is queued repair work, not part of the probe round, so a second
// death right after a revival is confirmed within the fail threshold's
// ticks even when the integrity-walk budget is small (a full scrub of
// this store at 256 KiB/s would take about ten seconds).
func TestRevivalDoesNotBlindMonitor(t *testing.T) {
	const interval = 10 * time.Millisecond
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 4 << 10, ScrubRateBytes: 256 << 10})
	want := patternBytes(t, 40*s.Codec().K()*(4<<10))
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	var failing [20]atomic.Bool
	rm := NewRepairManager(s, 2)
	NewHealthMonitor(s, NewScrubber(s, rm, 0), MonitorConfig{
		Interval: interval,
		Probe: func(node int) error {
			if failing[node].Load() {
				return ErrInjected
			}
			return nil
		},
	})
	rm.Start()
	defer rm.Stop()

	failing[3].Store(true)
	waitFor(t, 5*time.Second, "node 3's death", func() bool { return s.Metrics().AutoDeaths >= 1 })
	failing[3].Store(false)
	waitFor(t, 5*time.Second, "node 3's revival", func() bool { return s.Alive(3) })
	time.Sleep(50 * time.Millisecond)

	failing[7].Store(true)
	start := time.Now()
	const limit = 10 * interval
	for s.Alive(7) {
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("node 7 still alive %v after its probes began failing (limit %v)", d, limit)
		}
		time.Sleep(time.Millisecond)
	}
	d := time.Since(start)
	if d > limit {
		t.Fatalf("node 7 confirmed dead %v after its probes began failing, want within %v (10 intervals)", d, limit)
	}
	t.Logf("node 7 confirmed dead %v after its probes began failing", d)
	rm.Drain()
	got, _, err := s.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("get after revival and second death: %v", err)
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
// liveness over the backend view (empty for MemBackend).
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
		if info.WindowOps != 0 || info.ConsecFails != 0 || info.LastErr != "" {
			t.Fatalf("MemBackend node %d has transport accounting: %+v", i, info)
		}
		if wantAlive := i != 2; info.Alive != wantAlive {
			t.Fatalf("node %d alive = %v", i, info.Alive)
		}
	}
	if s.LiveNodes() != 3 {
		t.Fatalf("LiveNodes = %d, want 3", s.LiveNodes())
	}
}

// TestStragglerCostsTimeNotBytes puts one slow node under an object and
// checks what it costs a GET: time, and nothing else. A slow block is
// still a readable block, so the read waits for it — byte-exact, not
// degraded, exactly K block reads per stripe and no reconstruction.
func TestStragglerCostsTimeNotBytes(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(), 1)
	s := newTestStore(t, Config{Backend: fb, Nodes: 20, BlockSize: 16 << 10})
	const size = 1 << 20
	want := patternBytes(t, size)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.manifestSnapshot("obj")
	slow := obj.Stripes[0].Nodes[0] // holds a data block, so every GET waits on it
	s.unpin(obj)

	const stall = 50 * time.Millisecond
	fb.SetFault(slow, Fault{Latency: stall})
	before := s.Metrics()
	start := time.Now()
	got, info, err := s.Get("obj")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read past a straggler returned wrong bytes")
	}
	if info.Degraded {
		t.Fatal("a slow node is not a missing one; ReadInfo.Degraded = true")
	}
	if elapsed < stall {
		t.Fatalf("GET took %v, under the %v stall: the straggler was never read", elapsed, stall)
	}
	after := s.Metrics()
	if grew, reads := after.ReadBlocks-before.ReadBlocks, int64(s.Codec().K()*len(obj.Stripes)); grew != reads {
		t.Fatalf("ReadBlocks grew by %d, want K × stripes = %d", grew, reads)
	}
	if after.DegradedReads != before.DegradedReads {
		t.Fatalf("DegradedReads moved %d → %d", before.DegradedReads, after.DegradedReads)
	}
}
