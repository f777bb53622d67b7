package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/meta"
)

// TestMembershipStateMachine walks the planned-topology transitions:
// seed nodes start active, AddNode issues a joining id, Decommission
// drains, a drainer with no blocks retires on the next rebalance pass,
// and the illegal edges error.
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
	if n := s.placeableNodes(); n != 21 {
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
	if n := s.placeableNodes(); n != 20 {
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

	if err := s.Decommission(7); err != nil {
		t.Fatal(err)
	}
	NewRebalancer(s, NewRepairManager(s, 0), 0).RebalanceOnce()
	if st := s.MemberState(7); st != NodeDead {
		t.Fatalf("retired node state = %s, want dead", st)
	}
	if s.Alive(7) {
		t.Fatal("retired node must be dead for liveness too")
	}
	if s.ReviveNode(7); s.Alive(7) {
		t.Fatal("a retired member must stay down: revival is for transient failures")
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
	// Node 9 retires while it holds no blocks.
	if err := s1.Decommission(9); err != nil {
		t.Fatal(err)
	}
	NewRebalancer(s1, NewRepairManager(s1, 0), 0).RebalanceOnce()
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

// TestLivenessSurvivesKill9: liveness lives in the node's n/ record,
// committed on every flip in the order of the flips, so a crash with no
// Close reopens with each node's last flip — before any probe or
// presence walk has looked at the backend. The hammer half flips the
// same nodes from several goroutines: a commit that lost the race to a
// later flip's would leave that node's record stale on disk.
func TestLivenessSurvivesKill9(t *testing.T) {
	dir := t.TempDir()
	be := NewMemBackend()
	s1 := newTestStore(t, Config{Nodes: 20, Backend: be, MetaDir: dir})
	const a, b = 3, 8
	s1.KillNode(a)
	s1.KillNode(b)
	s1.ReviveNode(a)

	// No Close: the WAL is all the next open gets.
	s2 := newTestStore(t, Config{Nodes: 20, Backend: be, MetaDir: dir})
	if !s2.Alive(a) || s2.Alive(b) {
		t.Fatalf("recovered alive(%d) = %v, alive(%d) = %v; want true, false", a, s2.Alive(a), b, s2.Alive(b))
	}
	if got := s2.LiveNodes(); got != 19 {
		t.Fatalf("recovered LiveNodes() = %d, want 19", got)
	}
	if e := s2.Epoch(); e != 0 {
		t.Fatalf("liveness flips moved the membership epoch to %d", e)
	}
	if v, ok := s2.db.Get(nodeKey(b)); !ok || !v.(*memberRecord).Down {
		t.Fatalf("node %d's n/ record does not say it is down: %v", b, v)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				if n := rng.Intn(4); rng.Intn(2) == 0 {
					s2.KillNode(n)
				} else {
					s2.ReviveNode(n)
				}
			}
		}(g)
	}
	wg.Wait()
	s3 := newTestStore(t, Config{Nodes: 20, Backend: be, MetaDir: dir})
	for n := 0; n < 20; n++ {
		if s3.Alive(n) != s2.Alive(n) {
			t.Fatalf("node %d recovered alive = %v, last flip left it %v", n, s3.Alive(n), s2.Alive(n))
		}
	}
}

// TestLegacyDeadListFolds: a plane written before liveness joined the
// member records keeps the dead list in an s/state record, and its n/
// records carry no down field. It reopens with the same nodes down, the
// list folded into their n/ records and the old record gone, so the
// next open finds the same liveness without it.
func TestLegacyDeadListFolds(t *testing.T) {
	dir := t.TempDir()
	be := NewMemBackend()
	s1 := newTestStore(t, Config{Nodes: 20, Backend: be, MetaDir: dir})
	want := []byte("written before the fold")
	if err := s1.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// The old format, byte for byte: a joined node 20, a retired node 9,
	// and a dead list naming seed node 5, node 9 and node 20.
	db, err := meta.Open(meta.Options{Dir: dir, Codec: metaCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{
		nodeKey(20):   `{"node":20,"addr":"10.0.0.21:7000","state":"joining","epoch":1}`,
		nodeKey(9):    `{"node":9,"state":"dead","epoch":2}`,
		legacyDeadKey: `{"dead":[5,9,20]}`,
	} {
		if err := db.Put(k, json.RawMessage(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store, when string) {
		t.Helper()
		if got := s.Nodes(); got != 21 {
			t.Fatalf("%s: Nodes() = %d, want 21", when, got)
		}
		for n := 0; n < 21; n++ {
			if down := n == 5 || n == 9 || n == 20; s.Alive(n) == down {
				t.Fatalf("%s: node %d alive = %v", when, n, s.Alive(n))
			}
		}
		if _, ok := s.db.Get(legacyDeadKey); ok {
			t.Fatalf("%s: the s/state record is still in the plane", when)
		}
		if st, e := s.MemberState(20), s.Epoch(); st != NodeJoining || e != 2 {
			t.Fatalf("%s: node 20 %s at epoch %d, want joining at 2", when, st, e)
		}
		if got, _, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get: err %v, exact %v", when, err, bytes.Equal(got, want))
		}
	}
	s2 := newTestStore(t, Config{Backend: be, MetaDir: dir})
	check(s2, "first open")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newTestStore(t, Config{Backend: be, MetaDir: dir})
	check(s3, "second open")
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorKillsDeadDrainer: a draining node's liveness is the
// monitor's like any other node's. One that stops answering probes is
// killed after the threshold and one that answers again is revived, but
// a retired member is neither probed nor revived.
func TestMonitorKillsDeadDrainer(t *testing.T) {
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
	m := NewHealthMonitor(s, NewScrubber(s, NewRepairManager(s, 0), 0), MonitorConfig{
		// No Interval: ticks are driven by hand.
		Probe: probe,
	})

	const drainer = 6
	if err := s.Decommission(drainer); err != nil {
		t.Fatal(err)
	}
	failing[drainer] = true
	for i := 1; i < failThreshold; i++ {
		m.tick()
		if !s.Alive(drainer) {
			t.Fatalf("%d missed probes are below the threshold", i)
		}
	}
	m.tick()
	if s.Alive(drainer) {
		t.Fatal("monitor must kill a draining node that stopped answering")
	}
	if got := s.Metrics().AutoDeaths; got != 1 {
		t.Fatalf("AutoDeaths = %d, want 1", got)
	}

	// The drain protocol retires the node; a still-answering process
	// must not be revived into the topology, and is not even probed.
	s.KillNode(drainer)
	if moved, err := s.transition(drainer, NodeDraining, NodeDead); !moved || err != nil {
		t.Fatalf("transition draining→dead: moved %v, err %v", moved, err)
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

	// A draining node killed by hand whose process still answers is
	// revived, as an active one would be: it drains by copy again.
	const drainer2 = 11
	if err := s.Decommission(drainer2); err != nil {
		t.Fatal(err)
	}
	s.KillNode(drainer2)
	for i := 0; i < reviveThreshold; i++ {
		m.tick()
	}
	if !s.Alive(drainer2) {
		t.Fatal("monitor should revive a draining node that answers")
	}
	if st := s.MemberState(drainer2); st != NodeDraining {
		t.Fatalf("revived drainer state = %s, want draining", st)
	}
}

// TestMonitorProbesAddedNodes checks the streak slices stretch when
// membership grows between ticks.
func TestMonitorProbesAddedNodes(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 4})
	failing := map[int]bool{}
	m := NewHealthMonitor(s, NewScrubber(s, NewRepairManager(s, 0), 0), MonitorConfig{
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
	for i := 0; i < failThreshold; i++ {
		m.tick()
	}
	if s.Alive(id) {
		t.Fatal("joining node that fails probes should be auto-killed")
	}
}
