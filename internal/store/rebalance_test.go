package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestRebalanceDrainsLiveNode is the core migration path: a draining
// node's blocks move to placeable peers under the pacing bucket, the
// drain completes (node promoted to dead), every object stays
// byte-exact, and the source replicas are gone from the backend — zero
// orphans.
func TestRebalanceDrainsLiveNode(t *testing.T) {
	be := NewMemBackend()
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512, Backend: be,
		RebalanceRateBytes: 64 << 20}) // paced, but far from the test's rate
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
	if s.BlocksPerNode()[victim] == 0 {
		t.Fatal("test needs blocks on the victim")
	}
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}

	rb := NewRebalancer(s, NewRepairManager(s, 0), 0)
	rep := rb.RebalanceOnce()
	if rep.Moved == 0 {
		t.Fatal("rebalance moved nothing")
	}
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
	if m.RebalancedBlocks != int64(rep.Moved) {
		t.Fatalf("RebalancedBlocks = %d, report moved %d", m.RebalancedBlocks, rep.Moved)
	}
	// A live migration reads exactly what it moves: one block read per
	// moved block, no amplification.
	if m.RebalanceBlocksRead != int64(rep.Moved) {
		t.Fatalf("RebalanceBlocksRead = %d, want %d", m.RebalanceBlocksRead, rep.Moved)
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
	if rep.Moved != 0 {
		t.Fatalf("nothing is copyable off a dead node, moved %d", rep.Moved)
	}
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
	rep := rb.RebalanceOnce()
	if rep.Moved == 0 {
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

// TestCollectDrainWorkAfterJoin: a pass takes its membership snapshot
// before it walks the manifests, so a node that joins in between — and a
// PUT that lands a block on it — must not index past the snapshot.
func TestCollectDrainWorkAfterJoin(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 64})
	if err := s.Decommission(3); err != nil {
		t.Fatal(err)
	}
	states := s.memberStates()
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
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("collectDrainWork with a pre-join snapshot: %v", r)
		}
	}()
	var rep RebalanceReport
	moves := NewRebalancer(s, NewRepairManager(s, 0), 0).collectDrainWork(&rep, states)
	if want := s.BlocksPerNode()[3]; len(moves) != want {
		t.Fatalf("%d drain moves, want the drainer's %d blocks", len(moves), want)
	}
}

// TestRebalanceStatusAndNoop: MembershipStatus reflects the topology
// and a pass with nothing to do is a cheap no-op.
func TestRebalanceStatusAndNoop(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512})
	if err := s.Put("o", make([]byte, 512*10)); err != nil {
		t.Fatal(err)
	}
	rb := NewRebalancer(s, NewRepairManager(s, 0), 0)
	if rep := rb.RebalanceOnce(); rep.Stripes != 0 || rep.Moved != 0 {
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
	st = s.MembershipStatus()
	if st.Draining != 0 || st.Dead != 1 || st.DrainingBlocks != 0 {
		t.Fatalf("post-drain status: %+v", st)
	}
}

// TestRebalanceSurvivesOverwriteRace: an object overwritten between
// collection and migration must not have stale blocks spliced into its
// new manifest — the move is skipped and nothing orphans.
func TestRebalanceSurvivesOverwriteRace(t *testing.T) {
	be := NewMemBackend()
	s := newTestStore(t, Config{Nodes: 20, BlockSize: 512, Backend: be})
	rng := rand.New(rand.NewSource(10))
	if err := s.Put("obj", randBytes(rng, 512*10)); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	// Find a block on the victim and race an overwrite against its move
	// by migrating against the stale generation by hand.
	v, _ := s.db.Get(objKey("obj"))
	obj := v.(*objectInfo)
	ref := stripeRef{name: "obj", gen: obj.Gen, idx: 0}
	pos := -1
	for p, nd := range obj.Stripes[0].Nodes {
		if nd == victim {
			pos = p
			break
		}
	}
	want := randBytes(rng, 512*10)
	if err := s.Put("obj", want); err != nil { // new generation
		t.Fatal(err)
	}
	rb := NewRebalancer(s, NewRepairManager(s, 0), 0)
	if pos >= 0 {
		if n := rb.migrateOff(ref, pos); n != 0 {
			t.Fatal("migration against a stale generation must be skipped")
		}
	}
	got, _, err := s.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("overwrite lost to a stale rebalance")
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
