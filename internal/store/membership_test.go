package store

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestMembershipStateMachine walks the planned-topology transitions:
// seed nodes start active, AddNode issues a joining id, Decommission
// drains, RemoveNode hard-kills, and the illegal edges error.
func TestMembershipStateMachine(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20})
	if got := s.Nodes(); got != 20 {
		t.Fatalf("Nodes() = %d, want 20", got)
	}
	if e := s.Epoch(); e != 0 {
		t.Fatalf("seed epoch = %d, want 0", e)
	}
	for _, m := range s.Members() {
		if m.State != NodeActive || !m.Alive {
			t.Fatalf("seed member %d: state %s alive %v", m.Node, m.State, m.Alive)
		}
	}

	id, err := s.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	if id != 20 {
		t.Fatalf("AddNode id = %d, want 20", id)
	}
	if st := s.MemberState(id); st != NodeJoining {
		t.Fatalf("added node state = %s, want joining", st)
	}
	if got := s.Nodes(); got != 21 {
		t.Fatalf("Nodes() after add = %d, want 21", got)
	}
	if e := s.Epoch(); e != 1 {
		t.Fatalf("epoch after add = %d, want 1", e)
	}
	if n := s.PlaceableNodes(); n != 21 {
		t.Fatalf("placeable = %d, want 21 (joining nodes take placements)", n)
	}

	if err := s.Decommission(3); err != nil {
		t.Fatal(err)
	}
	if st := s.MemberState(3); st != NodeDraining {
		t.Fatalf("node 3 state = %s, want draining", st)
	}
	if !s.Alive(3) {
		t.Fatal("draining node must stay alive (it serves reads)")
	}
	if n := s.PlaceableNodes(); n != 20 {
		t.Fatalf("placeable = %d, want 20 (drainer excluded)", n)
	}
	// Idempotent: re-decommissioning holds the state and the epoch.
	e := s.Epoch()
	if err := s.Decommission(3); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != e {
		t.Fatal("idempotent Decommission must not bump the epoch")
	}

	if err := s.RemoveNode(7); err != nil {
		t.Fatal(err)
	}
	if st := s.MemberState(7); st != NodeDead {
		t.Fatalf("removed node state = %s, want dead", st)
	}
	if s.Alive(7) {
		t.Fatal("removed node must be dead for liveness too")
	}
	if err := s.Decommission(7); err == nil {
		t.Fatal("decommissioning a dead node must error")
	}
	if err := s.Decommission(99); err == nil {
		t.Fatal("decommissioning an unknown node must error")
	}
	if st := s.MemberState(99); st != NodeDead {
		t.Fatalf("unknown id state = %s, want dead", st)
	}
}

// TestMembershipPlacementAvoidsDrainers checks the placement contract:
// once a node drains, no new stripe lands a block on it, while existing
// blocks stay readable.
func TestMembershipPlacementAvoidsDrainers(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 256})
	if err := s.Put("before", []byte("written before the drain")); err != nil {
		t.Fatal(err)
	}
	const victim = 5
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put("after", make([]byte, 256*10+13)); err != nil {
			t.Fatal(err)
		}
		counts := s.BlocksPerNode()
		// Every block the drain-era puts placed must avoid the victim;
		// the victim's count can only come from "before".
		preCounts := blocksOn(s, "before", victim)
		if counts[victim] != preCounts {
			t.Fatalf("put %d: victim holds %d blocks, %d from pre-drain object", i, counts[victim], preCounts)
		}
	}
	if _, _, err := s.Get("before"); err != nil {
		t.Fatalf("pre-drain object must stay readable: %v", err)
	}
}

// blocksOn counts how many of name's manifest blocks sit on node.
func blocksOn(s *Store, name string, node int) int {
	v, ok := s.db.Get(objKey(name))
	if !ok {
		return 0
	}
	obj := v.(*objectInfo)
	n := 0
	for i := range obj.Stripes {
		for _, nd := range obj.Stripes[i].Nodes {
			if nd == node {
				n++
			}
		}
	}
	return n
}

// TestMembershipSurvivesKill9 reopens the same metadata plane without a
// Close — the kill -9 shape — and expects the full membership table
// (added node, drainer, dead node, epoch) to come back from the n/
// records alone.
func TestMembershipSurvivesKill9(t *testing.T) {
	dir := t.TempDir()
	be := NewMemBackend()
	s1 := newTestStore(t, Config{Nodes: 20, Backend: be, MetaDir: dir})
	if err := s1.Put("obj", []byte("survives the crash")); err != nil {
		t.Fatal(err)
	}
	id, err := s1.AddNode("10.0.0.21:7000")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Decommission(4); err != nil {
		t.Fatal(err)
	}
	if err := s1.RemoveNode(9); err != nil {
		t.Fatal(err)
	}
	wantEpoch := s1.Epoch()

	// No Close: the WAL is all the next open gets.
	s2 := newTestStore(t, Config{Nodes: 20, Backend: be, MetaDir: dir})
	if got := s2.Nodes(); got != 21 {
		t.Fatalf("recovered Nodes() = %d, want 21", got)
	}
	if st := s2.MemberState(id); st != NodeJoining {
		t.Fatalf("recovered added node state = %s, want joining", st)
	}
	ms := s2.Members()
	if ms[id].Addr != "10.0.0.21:7000" {
		t.Fatalf("recovered addr = %q", ms[id].Addr)
	}
	if st := s2.MemberState(4); st != NodeDraining {
		t.Fatalf("recovered node 4 state = %s, want draining", st)
	}
	if st := s2.MemberState(9); st != NodeDead {
		t.Fatalf("recovered node 9 state = %s, want dead", st)
	}
	if s2.Alive(9) {
		t.Fatal("dead member must recover dead for liveness")
	}
	if !s2.Alive(4) {
		t.Fatal("draining member must recover alive")
	}
	if got := s2.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d", got, wantEpoch)
	}
	if _, _, err := s2.Get("obj"); err != nil {
		t.Fatalf("object after recovery: %v", err)
	}
}

// TestMonitorRespectsDraining is the drain/monitor contract: a draining
// node that stops answering probes is NOT auto-killed (its liveness
// belongs to the drain protocol), and neither draining nor dead members
// are auto-revived when their processes answer pings.
func TestMonitorRespectsDraining(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20})
	failing := map[int]bool{}
	probes := make([]atomic.Int64, 20)
	probe := func(n int) error {
		probes[n].Add(1)
		if failing[n] {
			return errors.New("probe: no route")
		}
		return nil
	}
	m := NewHealthMonitor(s, nil, nil, MonitorConfig{
		Interval:        time.Hour, // ticks are driven by hand
		FailThreshold:   2,
		ReviveThreshold: 2,
		Probe:           probe,
	})

	const drainer = 6
	if err := s.Decommission(drainer); err != nil {
		t.Fatal(err)
	}
	failing[drainer] = true
	for i := 0; i < 5; i++ {
		m.tick()
	}
	if !s.Alive(drainer) {
		t.Fatal("monitor must not auto-kill a draining node")
	}
	if got := s.Metrics().AutoDeaths; got != 0 {
		t.Fatalf("AutoDeaths = %d, want 0", got)
	}

	// The drain protocol retires the node; a still-answering process
	// must not be revived into the topology, and is not even probed.
	s.KillNode(drainer)
	if !s.promote(drainer, NodeDraining, NodeDead) {
		t.Fatal("promote draining→dead failed")
	}
	failing[drainer] = false
	before := probes[drainer].Load()
	for i := 0; i < 5; i++ {
		m.tick()
	}
	if s.Alive(drainer) {
		t.Fatal("monitor must not revive a dead member")
	}
	if got := probes[drainer].Load() - before; got != 0 {
		t.Fatalf("monitor probed a retired member %d times, want 0", got)
	}

	// A draining node the operator killed by hand also stays down: its
	// revival belongs to the operator, not the prober.
	const drainer2 = 11
	if err := s.Decommission(drainer2); err != nil {
		t.Fatal(err)
	}
	s.KillNode(drainer2)
	for i := 0; i < 5; i++ {
		m.tick()
	}
	if s.Alive(drainer2) {
		t.Fatal("monitor must not revive a draining node")
	}

	// Sanity: the suppression is state-scoped, not global — an active
	// node still flips both ways.
	const active = 2
	failing[active] = true
	for i := 0; i < 3; i++ {
		m.tick()
	}
	if s.Alive(active) {
		t.Fatal("active node should be auto-killed after threshold")
	}
	failing[active] = false
	for i := 0; i < 3; i++ {
		m.tick()
	}
	if !s.Alive(active) {
		t.Fatal("active node should be auto-revived after threshold")
	}
}

// TestMonitorProbesAddedNodes checks the streak slices stretch when
// membership grows between ticks.
func TestMonitorProbesAddedNodes(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 4})
	failing := map[int]bool{}
	m := NewHealthMonitor(s, nil, nil, MonitorConfig{
		Interval:      time.Hour,
		FailThreshold: 2,
		Probe: func(n int) error {
			if failing[n] {
				return errors.New("down")
			}
			return nil
		},
	})
	m.tick()
	id, err := s.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	failing[id] = true
	for i := 0; i < 3; i++ {
		m.tick()
	}
	if s.Alive(id) {
		t.Fatal("joining node that fails probes should be auto-killed")
	}
}
