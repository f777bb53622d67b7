package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRebalanceDrainsLiveNode is the core drain path: a pass queues the
// draining node's stripes, the repair pool copies each block off it under
// the repair budget, and the next pass retires the node (promoted to
// dead). Every object stays byte-exact, and the source replicas are gone
// from the backend — zero orphans.
func TestRebalanceDrainsLiveNode(t *testing.T) {
	be := NewMemBackend()
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512, Backend: be,
		RepairRateBytes: 64 << 20}) // paced, but far from the test's rate
	rng := rand.New(rand.NewSource(7))
	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("obj-%d", i)
		want[name] = randBytes(rng, 512*10*2+37)
		if err := s.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 8
	held := s.BlocksPerNode()[victim]
	if held == 0 {
		t.Fatal("test needs blocks on the victim")
	}
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}

	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	rb := NewRebalancer(s, rm, 0)
	if rep := rb.RebalanceOnce(); rep.Enqueued != held {
		t.Fatalf("pass queued %d stripes, want the victim's %d", rep.Enqueued, held)
	}
	rm.Drain()
	rep := rb.RebalanceOnce()
	if rep.Remaining != 0 {
		t.Fatalf("drain incomplete: %d blocks remain", rep.Remaining)
	}
	if rep.Promoted == 0 {
		t.Fatal("completed drain should promote draining→dead")
	}
	if st := s.MemberState(victim); st != NodeDead {
		t.Fatalf("victim state = %s, want dead", st)
	}
	if counts := s.BlocksPerNode(); counts[victim] != 0 {
		t.Fatalf("victim still referenced by %d manifest blocks", counts[victim])
	}
	if n := be.BlockCount(victim); n != 0 {
		t.Fatalf("victim backend still holds %d blocks (orphans)", n)
	}
	for name, data := range want {
		got, info, err := s.Get(name)
		if err != nil {
			t.Fatalf("Get(%s) after drain: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Get(%s): payload mismatch after drain", name)
		}
		if info.Degraded {
			t.Fatalf("Get(%s): degraded after a clean drain", name)
		}
	}
	m := s.Metrics()
	if m.RebalancedBlocks != int64(held) {
		t.Fatalf("RebalancedBlocks = %d, want the victim's %d", m.RebalancedBlocks, held)
	}
	// A live drain copies: one repair read (the re-probe) per copied
	// block, no amplification, and nothing rebuilt.
	if m.RepairBlocksRead != m.RebalancedBlocks || m.RepairedBlocks != 0 {
		t.Fatalf("RepairBlocksRead = %d, RepairedBlocks = %d; want %d and 0",
			m.RepairBlocksRead, m.RepairedBlocks, m.RebalancedBlocks)
	}
}

// TestRebalanceDrainsDeadNode covers satellite drain-by-repair: the
// victim dies first, then is decommissioned. The rebalancer cannot copy
// from it, so it enqueues presence repairs; once the repair pool drains,
// the next pass finds nothing left and retires the node.
func TestRebalanceDrainsDeadNode(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512})
	rng := rand.New(rand.NewSource(8))
	want := map[string][]byte{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("obj-%d", i)
		want[name] = randBytes(rng, 512*10+99)
		if err := s.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 3
	s.KillNode(victim)
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}

	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	rb := NewRebalancer(s, rm, 0)

	rep := rb.RebalanceOnce()
	if s.BlocksPerNode()[victim] > 0 && rep.Enqueued == 0 {
		t.Fatal("dead drainer's stripes were not enqueued for repair")
	}
	rm.Drain()

	rep = rb.RebalanceOnce()
	if rep.Remaining != 0 {
		t.Fatalf("drain incomplete after repair: %d blocks remain", rep.Remaining)
	}
	if st := s.MemberState(victim); st != NodeDead {
		t.Fatalf("victim state = %s, want dead", st)
	}
	for name, data := range want {
		got, _, err := s.Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Get(%s): payload mismatch", name)
		}
	}
	// The drain went through the repair datapath: with the LRC codec
	// most rebuilds are light (r=5 reads), the paper's locality win.
	m := s.Metrics()
	if m.RepairedBlocks == 0 {
		t.Fatal("dead-node drain should repair blocks")
	}
	if m.RebalancedBlocks != 0 {
		t.Fatalf("nothing is copyable off a dead node, copied %d", m.RebalancedBlocks)
	}
	if m.RepairsLight == 0 {
		t.Fatal("LRC dead-node drain should use light repairs")
	}
}

// TestRebalanceFillsJoiner checks AddNode + rebalance: the joiner ends
// the pass holding a share of blocks (filled toward the cluster mean,
// never breaking the rack rule), gets promoted to active, and data
// stays byte-exact.
func TestRebalanceFillsJoiner(t *testing.T) {
	be := NewMemBackend()
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512, Backend: be})
	rng := rand.New(rand.NewSource(9))
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("obj-%d", i)
		want[name] = randBytes(rng, 512*10*2+5)
		if err := s.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	id, err := s.AddNode("")
	if err != nil {
		t.Fatal(err)
	}

	rb := NewRebalancer(s, NewRepairManager(s, 0), 0)
	rb.RebalanceOnce()
	if s.Metrics().RebalancedBlocks == 0 {
		t.Fatal("fill moved nothing onto the joiner")
	}
	counts := s.BlocksPerNode()
	if counts[id] == 0 {
		t.Fatal("joiner holds no blocks after the fill")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	mean := (total + len(counts) - 1) / len(counts)
	if counts[id] > mean {
		t.Fatalf("joiner overfilled: %d blocks, mean %d", counts[id], mean)
	}
	if st := s.MemberState(id); st != NodeActive {
		t.Fatalf("joiner state after pass = %s, want active", st)
	}
	if s.Epoch() == 0 {
		t.Fatal("membership changes must bump the epoch")
	}
	for name, data := range want {
		got, _, err := s.Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Get(%s): payload mismatch after fill", name)
		}
	}
	// Rack safety held for every fill move: re-verify the strict rule
	// for blocks now on the joiner.
	for name := range want {
		v, _ := s.db.Get(objKey(name))
		obj := v.(*objectInfo)
		for i := range obj.Stripes {
			si := &obj.Stripes[i]
			for pos, nd := range si.Nodes {
				if nd != id {
					continue
				}
				chk := *si
				if !s.placementSafe(&chk, pos, nd) {
					t.Fatalf("%s stripe %d pos %d: fill broke the placement rule", name, i, pos)
				}
			}
		}
	}
}

// TestDrainWalkAfterJoin: a pass takes its membership snapshot before it
// walks the manifests, and a node that joined since, holding blocks, is
// no drainer. A walk over a snapshot taken before such a join does not
// index past it, and a pass after the join queues exactly the drainer's
// stripes.
func TestDrainWalkAfterJoin(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 64})
	if err := s.Decommission(3); err != nil {
		t.Fatal(err)
	}
	before := s.Members()
	joiner, err := s.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; s.BlocksPerNode()[joiner] == 0; i++ {
		if i == 20 {
			t.Fatal("no PUT placed a block on the joiner")
		}
		if err := s.Put(fmt.Sprintf("o%d", i), randBytes(rng, 64*10)); err != nil {
			t.Fatal(err)
		}
	}
	want := s.BlocksPerNode()[3] // one block per stripe
	rm := NewRepairManager(s, 0)
	if rep := rm.presence(drainingIn(before)); rep.Enqueued != want {
		t.Fatalf("pre-join walk queued %d stripes, want the drainer's %d", rep.Enqueued, want)
	}
	rm = NewRepairManager(s, 0)
	if rep := NewRebalancer(s, rm, 0).RebalanceOnce(); rep.Enqueued != want || rm.q.len() != want {
		t.Fatalf("pass queued %d stripes (%d pending), want the drainer's %d", rep.Enqueued, rm.q.len(), want)
	}
}

// TestRebalanceStatusAndNoop: MembershipStatus reflects the topology
// and a pass with nothing to do is a cheap no-op.
func TestRebalanceStatusAndNoop(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512})
	if err := s.Put("o", make([]byte, 512*10)); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	rb := NewRebalancer(s, rm, 0)
	if rep := rb.RebalanceOnce(); rep != (RebalanceReport{}) {
		t.Fatalf("steady-state pass should not walk: %+v", rep)
	}
	st := s.MembershipStatus()
	if st.Active != 20 || st.Draining != 0 || st.DrainingBlocks != 0 {
		t.Fatalf("steady-state status: %+v", st)
	}
	const victim = 2
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	st = s.MembershipStatus()
	if st.Draining != 1 || st.Active != 19 {
		t.Fatalf("post-decommission status: %+v", st)
	}
	if st.DrainingBlocks != s.BlocksPerNode()[victim] {
		t.Fatalf("DrainingBlocks = %d, want %d", st.DrainingBlocks, s.BlocksPerNode()[victim])
	}
	if st.Epoch != s.Epoch() {
		t.Fatalf("status epoch = %d, store epoch %d", st.Epoch, s.Epoch())
	}
	rb.RebalanceOnce()
	rm.Drain()
	rb.RebalanceOnce()
	st = s.MembershipStatus()
	if st.Draining != 0 || st.Dead != 1 || st.DrainingBlocks != 0 {
		t.Fatalf("post-drain status: %+v", st)
	}
}

// TestRebalanceSurvivesOverwriteRace: a drain item queued for a
// generation that an overwrite then replaced moves nothing — a stale
// block must never be spliced into the new manifest — and the overwrite
// reads back.
func TestRebalanceSurvivesOverwriteRace(t *testing.T) {
	be := NewMemBackend()
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512, Backend: be})
	rng := rand.New(rand.NewSource(10))
	if err := s.Put("obj", randBytes(rng, 512*10)); err != nil {
		t.Fatal(err)
	}
	v, _ := s.db.Get(objKey("obj"))
	obj := v.(*objectInfo)
	victim := obj.Stripes[0].Nodes[0]
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 2)
	rm.enqueue(repairItem{ref: stripeRef{name: "obj", gen: obj.Gen, idx: 0}, damaged: []int{0}})
	want := randBytes(rng, 512*10)
	if err := s.Put("obj", want); err != nil { // new generation
		t.Fatal(err)
	}
	rm.Start()
	rm.Drain()
	rm.Stop()
	if m := s.Metrics(); m.RebalancedBlocks != 0 || m.RepairedBlocks != 0 {
		t.Fatalf("a drain item for a replaced generation moved %d blocks, rebuilt %d", m.RebalancedBlocks, m.RepairedBlocks)
	}
	got, _, err := s.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("overwrite lost to a stale drain")
	}
}

// TestRebalanceDrainWaitsForDeletes: a live drainer whose stale copies
// refuse deletion stays draining, the copies counted in Remaining, until
// a later pass deletes them; a dead drainer's refused deletes do not hold
// its drain, and the next drain after it left the topology drops them.
func TestRebalanceDrainWaitsForDeletes(t *testing.T) {
	for _, dead := range []bool{false, true} {
		gate := newDeleteGate()
		s := newTestStore(t, Config{Nodes: 20, BlockSize: 512, Backend: gate})
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 4; i++ {
			if err := s.Put(fmt.Sprintf("obj-%d", i), randBytes(rng, 512*10+7)); err != nil {
				t.Fatal(err)
			}
		}
		const victim = 6
		held := gate.BlockCount(victim)
		gate.shut.Store(victim)
		if dead {
			s.KillNode(victim)
		}
		if err := s.Decommission(victim); err != nil {
			t.Fatal(err)
		}
		rm := NewRepairManager(s, 2)
		rm.Start()
		rb := NewRebalancer(s, rm, 0)
		rb.RebalanceOnce()
		rm.Drain()
		rep := rb.RebalanceOnce()
		rm.Stop()
		if dead {
			if st := s.MemberState(victim); rep.Remaining != 0 || st != NodeDead {
				t.Fatalf("dead drainer: %d remaining, state %s; want 0 and dead", rep.Remaining, st)
			}
			if err := s.Reclaim(); err != nil || s.Metrics().ReclaimPendingBlocks != 0 {
				t.Fatalf("dead drainer: its refused deletes outlive it (err %v)", err)
			}
			continue
		}
		if st := s.MemberState(victim); rep.Remaining != held || st != NodeDraining {
			t.Fatalf("refused deletes: %d remaining, state %s; want %d and draining", rep.Remaining, st, held)
		}
		gate.shut.Store(-1)
		if rep = rb.RebalanceOnce(); rep.Remaining != 0 || s.MemberState(victim) != NodeDead {
			t.Fatalf("after the deletes: %d remaining, state %s", rep.Remaining, s.MemberState(victim))
		}
		if n := gate.BlockCount(victim); n != 0 {
			t.Fatalf("drained node holds %d blocks", n)
		}
	}
}

// TestDeadDrainerRetires: a decommissioned node whose process dies
// mid-drain (its probes fail and its reads error) is killed by the health
// monitor like any other node; its queued blocks are rebuilt instead of
// copied, and the drain still retires it.
func TestDeadDrainerRetires(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(), 1)
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 1 << 10, Backend: fb})
	rng := rand.New(rand.NewSource(41))
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("obj-%d", i)
		want[name] = randBytes(rng, 10<<10)
		if err := s.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	const drainer = 6
	if err := s.Decommission(drainer); err != nil {
		t.Fatal(err)
	}
	fb.SetFault(drainer, Fault{ErrRate: 1})
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	m := NewHealthMonitor(s, NewScrubber(s, rm, 0), MonitorConfig{
		Probe: func(n int) error {
			if n == drainer {
				return ErrInjected
			}
			return nil
		},
	})
	rb := NewRebalancer(s, rm, 0)
	for round := 0; round < 10 && s.MemberState(drainer) != NodeDead; round++ {
		m.tick()
		rb.RebalanceOnce()
		rm.Drain()
	}
	if st, left := s.MemberState(drainer), s.BlocksPerNode()[drainer]; st != NodeDead || left != 0 || s.Alive(drainer) {
		t.Fatalf("dead drainer: state %s, %d blocks, alive %v; want dead, 0, false", st, left, s.Alive(drainer))
	}
	for name, data := range want {
		got, info, err := s.Get(name)
		if err != nil || !bytes.Equal(got, data) || info.Degraded {
			t.Fatalf("Get(%s): err %v, exact %v, degraded %v", name, err, bytes.Equal(got, data), info.Degraded)
		}
	}
}

// TestLossOutranksDrain: a drain queues behind every stripe that lost a
// block. Node a is decommissioned and node b killed, before or after the
// drain walk; the walk runs before ScrubPresence, yet every item popped
// before the first drain-only one carries b's block as damage.
func TestLossOutranksDrain(t *testing.T) {
	for _, killFirst := range []bool{true, false} {
		s := newTestStore(t, Config{Nodes: 20, BlockSize: 512})
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 10; i++ {
			if err := s.Put(fmt.Sprintf("obj-%d", i), randBytes(rng, 512*10)); err != nil {
				t.Fatal(err)
			}
		}
		const a, b = 4, 11 // placement leaves b out of some stripes that hold a
		if err := s.Decommission(a); err != nil {
			t.Fatal(err)
		}
		if killFirst {
			s.KillNode(b)
		}
		rm := NewRepairManager(s, 0)
		NewRebalancer(s, rm, 0).RebalanceOnce()
		s.KillNode(b)
		NewScrubber(s, rm, 0).ScrubPresence()
		losses, drains, both := 0, 0, 0
		for rm.q.len() > 0 {
			it, _ := rm.q.pop()
			si, _ := s.stripeSnapshot(it.ref)
			pb := slices.Index(si.Nodes, b)
			if pb < 0 {
				drains++
				continue
			}
			if !slices.Contains(it.damaged, pb) {
				t.Fatalf("kill first %v: stripe %+v lost its block on node %d, queued with damage %v", killFirst, it.ref, b, it.damaged)
			}
			if drains > 0 {
				t.Fatalf("kill first %v: stripe %+v lost a block on node %d but popped after %d drain-only items", killFirst, it.ref, b, drains)
			}
			if slices.Contains(si.Nodes, a) {
				both++
			}
			losses++
		}
		if losses == 0 || drains == 0 || both == 0 {
			t.Fatalf("%d loss items (%d also draining), %d drain-only items; the test needs all three", losses, both, drains)
		}
	}
}

// TestDrainRepairsLaterLoss: a node that dies while its stripes sit in
// the queue as drain items still gets its blocks rebuilt. The drain pass
// queues node a's stripes, node b dies, and ScrubPresence's items merge
// into the pending drains; once the pool has drained, no manifest places
// a block on b — without a scrub — and the next pass retires a.
func TestDrainRepairsLaterLoss(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512})
	rng := rand.New(rand.NewSource(14))
	want := map[string][]byte{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("obj-%d", i)
		want[name] = randBytes(rng, 512*10)
		if err := s.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	const a, b = 4, 11
	if err := s.Decommission(a); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 2)
	defer rm.Stop()
	rb := NewRebalancer(s, rm, 0)
	rb.RebalanceOnce() // the workers are not started: the drain items wait
	s.KillNode(b)
	NewScrubber(s, rm, 0).ScrubPresence()
	rm.Start()
	rm.Drain()
	if left := s.BlocksPerNode()[b]; left != 0 {
		t.Fatalf("%d manifest blocks still on dead node %d", left, b)
	}
	if rep := rb.RebalanceOnce(); rep.Remaining != 0 || s.MemberState(a) != NodeDead {
		t.Fatalf("drain of %d: %d remaining, state %s", a, rep.Remaining, s.MemberState(a))
	}
	for name, data := range want {
		got, info, err := s.Get(name)
		if err != nil || !bytes.Equal(got, data) || info.Degraded {
			t.Fatalf("Get(%s): err %v, exact %v, degraded %v", name, err, bytes.Equal(got, data), info.Degraded)
		}
	}
}
