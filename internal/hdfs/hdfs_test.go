package hdfs

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/lrc"
	"repro/internal/sim"
)

const mb = 1 << 20

func testCluster(t testing.TB, nodes int) (*sim.Engine, *cluster.Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:      nodes,
		NodeOutBps: 12 * mb, NodeInBps: 12 * mb,
		BucketSec: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl
}

func testFS(t testing.TB, cl *cluster.Cluster, scheme *lrc.Code) *FS {
	t.Helper()
	fs, err := New(cl, scheme, Config{
		BlockSizeBytes: 64 * mb,
		SlotsPerNode:   2, RepairMaxParallel: 8,
		TaskLaunchSec: 10, FixerScanSec: 30,
		DeployedReads: true, DecodeCPUSecPerRead: 0.2,
		DegradedTimeoutSec: 15, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestAddFilePlacement(t *testing.T) {
	_, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	stripes, err := fs.AddFile("f1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(stripes) != 1 {
		t.Fatalf("10 blocks should form 1 stripe, got %d", len(stripes))
	}
	s := stripes[0]
	seen := map[int]bool{}
	stored := 0
	for pos, node := range s.Node {
		if node < 0 {
			t.Fatalf("position %d not stored in a full stripe", pos)
		}
		if seen[node] {
			t.Fatalf("stripe collocated two blocks on node %d", node)
		}
		seen[node] = true
		stored++
	}
	if stored != 16 {
		t.Fatalf("stored %d blocks want 16", stored)
	}
}

func TestAddFileMultiStripeAndPartial(t *testing.T) {
	_, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	stripes, err := fs.AddFile("f", 23) // 10 + 10 + 3
	if err != nil {
		t.Fatal(err)
	}
	if len(stripes) != 3 {
		t.Fatalf("got %d stripes want 3", len(stripes))
	}
	last := stripes[2]
	if last.DataCount != 3 {
		t.Fatalf("last stripe data count %d", last.DataCount)
	}
	// 3 data + 4 RS + 1 local parity = 8 stored.
	stored := 0
	for _, n := range last.Node {
		if n >= 0 {
			stored++
		}
	}
	if stored != 8 {
		t.Fatalf("partial stripe stored %d want 8", stored)
	}
	if fs.TotalBlocksStored() != 16+16+8 {
		t.Fatalf("total stored %d", fs.TotalBlocksStored())
	}
}

func TestAddFileValidation(t *testing.T) {
	_, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	if _, err := fs.AddFile("bad", 0); err == nil {
		t.Fatal("0-block file accepted")
	}
	// A stripe wider than the cluster wraps with minimal collocation
	// (the paper's 15-slave WordCount cluster holds 16-block stripes).
	_, tiny := testCluster(t, 5)
	fsTiny := testFS(t, tiny, lrc.NewXorbas())
	stripes, err := fsTiny.AddFile("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[int]int{}
	for _, n := range stripes[0].Node {
		if n >= 0 {
			perNode[n]++
		}
	}
	// 16 blocks over 5 nodes: every node gets 3 or 4.
	for n, c := range perNode {
		if c < 3 || c > 4 {
			t.Fatalf("node %d holds %d blocks; placement not even", n, c)
		}
	}
}

// One node killed: every lost block is repaired; Xorbas repairs are all
// light with 5 reads each.
func TestSingleNodeFailureRepairXorbas(t *testing.T) {
	eng, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	for i := 0; i < 20; i++ {
		if _, err := fs.AddFile("f", 10); err != nil {
			t.Fatal(err)
		}
	}
	victim := 7
	lost := fs.BlocksOn(victim)
	if lost == 0 {
		t.Skip("victim stored nothing; adjust seed")
	}
	before := fs.Snapshot()
	fs.ResetRepairWindow()
	fs.KillNode(victim)
	eng.Run()
	d := fs.Delta(before)
	if d.BlocksRepaired != lost {
		t.Fatalf("repaired %d of %d lost blocks", d.BlocksRepaired, lost)
	}
	if d.HeavyRepairs != 0 {
		t.Fatalf("%d heavy repairs for single-node failure", d.HeavyRepairs)
	}
	wantBytes := float64(lost) * 5 * 64 * mb
	if math.Abs(d.HDFSBytesRead-wantBytes) > 1 {
		t.Fatalf("bytes read %.0f want %.0f (5 reads per light repair)", d.HDFSBytesRead, wantBytes)
	}
	if fs.RepairDuration() <= 0 {
		t.Fatal("repair duration not recorded")
	}
	// No block should remain lost, and no stripe position should sit on
	// the dead node.
	for _, s := range fs.Stripes() {
		for pos, nd := range s.Node {
			if s.Lost[pos] {
				t.Fatal("block still lost after repair")
			}
			if nd == victim {
				t.Fatal("block still placed on dead node")
			}
		}
	}
}

// RS deployed repair reads 13 blocks per lost block: the 2× headline.
func TestSingleNodeFailureRepairRS(t *testing.T) {
	eng, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewRS104())
	for i := 0; i < 20; i++ {
		if _, err := fs.AddFile("f", 10); err != nil {
			t.Fatal(err)
		}
	}
	victim := 7
	lost := fs.BlocksOn(victim)
	before := fs.Snapshot()
	fs.KillNode(victim)
	eng.Run()
	d := fs.Delta(before)
	if d.BlocksRepaired != lost {
		t.Fatalf("repaired %d of %d", d.BlocksRepaired, lost)
	}
	if d.LightRepairs != 0 {
		t.Fatal("RS has no light decoder")
	}
	wantBytes := float64(lost) * 13 * 64 * mb
	if math.Abs(d.HDFSBytesRead-wantBytes) > 1 {
		t.Fatalf("bytes read %.0f want %.0f (13 streams per repair)", d.HDFSBytesRead, wantBytes)
	}
}

// Xorbas reads ≈ 5/13 of RS bytes and finishes faster on the same
// failure — Fig 4's comparison in miniature.
func TestXorbasVsRSBytesAndDuration(t *testing.T) {
	run := func(scheme *lrc.Code) (bytes float64, duration float64) {
		eng, cl := testCluster(t, 50)
		fs := testFS(t, cl, scheme)
		for i := 0; i < 20; i++ {
			if _, err := fs.AddFile("f", 10); err != nil {
				t.Fatal(err)
			}
		}
		before := fs.Snapshot()
		fs.KillNode(3)
		eng.Run()
		return fs.Delta(before).HDFSBytesRead, fs.RepairDuration()
	}
	rsBytes, rsDur := run(lrc.NewRS104())
	xoBytes, xoDur := run(lrc.NewXorbas())
	ratio := xoBytes / rsBytes
	// Per-block ratio is 5/13 ≈ 0.385; Xorbas loses ~16/14 more blocks.
	if ratio < 0.30 || ratio > 0.60 {
		t.Fatalf("bytes ratio %.2f outside the paper's 41%%–52%% band (±)", ratio)
	}
	if xoDur >= rsDur {
		t.Fatalf("Xorbas repair (%.0fs) not faster than RS (%.0fs)", xoDur, rsDur)
	}
}

// Two losses in one group force heavy repairs but everything recovers.
func TestDoubleFailureHeavyPath(t *testing.T) {
	eng, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	stripes, _ := fs.AddFile("f", 10)
	s := stripes[0]
	// Kill the nodes holding positions 0 and 1 (same group).
	fs.KillNode(s.Node[0])
	fs.KillNode(s.Node[1])
	before := fs.Snapshot()
	_ = before
	eng.Run()
	if s.Lost[0] || s.Lost[1] {
		t.Fatal("blocks not repaired")
	}
	d := fs.Snapshot()
	if d.HeavyRepairs == 0 {
		t.Fatal("expected at least one heavy repair")
	}
}

// Five erasures in a fatal pattern are unrecoverable and counted.
func TestUnrecoverableStripe(t *testing.T) {
	eng, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	stripes, _ := fs.AddFile("f", 10)
	s := stripes[0]
	// Erase a whole group (X1..X5 + S1 = 6 blocks ≥ d): kill their nodes.
	for _, pos := range []int{0, 1, 2, 3, 4, 14} {
		fs.KillNode(s.Node[pos])
	}
	eng.Run()
	snap := fs.Snapshot()
	if snap.Unrecoverable == 0 {
		t.Fatal("expected unrecoverable blocks")
	}
}

// 3-replication is the (1, 2) code with no local parities. Under the
// minimal read policy — HDFS re-replication copies one survivor — repair
// reads one block per lost block.
func TestReplicationRepair(t *testing.T) {
	eng, cl := testCluster(t, 20)
	rep, err := lrc.New(lrc.Params{K: 1, GlobalParities: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs := testFS(t, cl, rep)
	fs.Cfg.DeployedReads = false
	if _, err := fs.AddFile("f", 30); err != nil {
		t.Fatal(err)
	}
	lost := fs.BlocksOn(5)
	before := fs.Snapshot()
	fs.KillNode(5)
	eng.Run()
	d := fs.Delta(before)
	if d.BlocksRepaired != lost {
		t.Fatalf("repaired %d of %d", d.BlocksRepaired, lost)
	}
	want := float64(lost) * 64 * mb
	if math.Abs(d.HDFSBytesRead-want) > 1 {
		t.Fatalf("bytes %.0f want %.0f", d.HDFSBytesRead, want)
	}
}

// Degraded read: a present block is free locally, a missing block incurs
// the reconstruction read-set without any repair write.
func TestReadBlockDegraded(t *testing.T) {
	eng, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	fs.Cfg.FixerScanSec = 1e9 // keep the fixer out of this test
	stripes, _ := fs.AddFile("f", 10)
	s := stripes[0]
	var localDegraded, missDegraded bool
	fs.ReadBlock(s, 0, s.Node[0], func(d bool) { localDegraded = d })
	eng.Run()
	if localDegraded {
		t.Fatal("local read reported degraded")
	}
	before := fs.Snapshot()
	fs.KillNode(s.Node[2])
	done := false
	fs.ReadBlock(s, 2, s.Node[0], func(d bool) { missDegraded = d; done = true })
	// Run well past the degraded read but short of the (disabled) fixer.
	eng.RunUntil(1e6)
	if !done || !missDegraded {
		t.Fatal("degraded read did not complete")
	}
	d := fs.Delta(before)
	if d.DegradedReads != 1 {
		t.Fatalf("degraded reads %d", d.DegradedReads)
	}
	if d.BlocksRepaired != 0 {
		t.Fatal("degraded read must not write a repair")
	}
	if math.Abs(d.HDFSBytesRead-5*64*mb) > 1 {
		t.Fatalf("degraded read bytes %.0f want 5 blocks", d.HDFSBytesRead)
	}
	if s.Lost[2] != true {
		t.Fatal("degraded read should leave the block lost")
	}
}

// The FairScheduler shares slots across jobs round-robin.
func TestFairSchedulerSharing(t *testing.T) {
	eng, cl := testCluster(t, 2) // 2 nodes × 2 slots = 4 slots
	jt := NewJobTracker(cl, 2)
	runCount := map[string]int{}
	mkJob := func(name string, tasks int) *Job {
		j := &Job{Name: name}
		for i := 0; i < tasks; i++ {
			j.AddTask(&Task{PreferredNode: -1, Run: func(node int, finish func()) {
				runCount[name]++
				eng.Schedule(10, finish)
			}})
		}
		return j
	}
	a := mkJob("a", 10)
	b := mkJob("b", 10)
	jt.Submit(a) // a grabs all 4 slots immediately
	jt.Submit(b)
	// Once the first wave's slots free (t=10), round-robin must hand b a
	// fair share rather than letting a finish first.
	eng.RunUntil(15)
	if runCount["b"] < 2 {
		t.Fatalf("unfair second wave: %v", runCount)
	}
	eng.Run()
	if !a.Done() || !b.Done() {
		t.Fatal("jobs not finished")
	}
	if a.FinishedAt <= 0 || b.FinishedAt <= 0 {
		t.Fatal("finish times not recorded")
	}
	// Fair sharing means neither job finishes the whole workload ahead of
	// the other's midpoint: b must not start only after a fully ends.
	if b.FinishedAt < a.FinishedAt/2 || a.FinishedAt < b.FinishedAt/2 {
		t.Fatalf("completion skew: a=%f b=%f", a.FinishedAt, b.FinishedAt)
	}
}

func TestJobMaxParallel(t *testing.T) {
	eng, cl := testCluster(t, 10) // 20 slots
	jt := NewJobTracker(cl, 2)
	var concurrent, peak int
	j := &Job{Name: "capped", MaxParallel: 3}
	for i := 0; i < 12; i++ {
		j.AddTask(&Task{PreferredNode: -1, Run: func(node int, finish func()) {
			concurrent++
			if concurrent > peak {
				peak = concurrent
			}
			eng.Schedule(5, func() { concurrent--; finish() })
		}})
	}
	jt.Submit(j)
	eng.Run()
	if peak != 3 {
		t.Fatalf("peak concurrency %d want 3", peak)
	}
	if !j.Done() || j.Completed() != 12 || j.Total() != 12 {
		t.Fatal("job accounting wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	_, cl := testCluster(t, 5)
	if _, err := New(cl, lrc.NewXorbas(), Config{}); err == nil {
		t.Fatal("zero block size accepted")
	}
}

// Transient failure (§1.1): the node returns before the BlockFixer scan
// fires, so no repair traffic is generated at all.
func TestTransientFailureNoRepairs(t *testing.T) {
	eng, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	if _, err := fs.AddFile("f", 10); err != nil {
		t.Fatal(err)
	}
	victim := 3
	before := fs.Snapshot()
	fs.KillNode(victim)
	// The node comes back before the 30 s scan.
	eng.RunUntil(10)
	fs.RestartNode(victim)
	eng.Run()
	d := fs.Delta(before)
	if d.BlocksRepaired != 0 || d.HDFSBytesRead != 0 {
		t.Fatalf("transient failure triggered repairs: %+v", d)
	}
	for _, s := range fs.Stripes() {
		for pos := range s.Node {
			if s.Lost[pos] {
				t.Fatal("blocks still lost after restart")
			}
		}
	}
}

// A transient restart racing the fixer: blocks repaired before the
// restart stay repaired, the rest are revived; nothing is double-counted.
func TestTransientRestartDuringRepair(t *testing.T) {
	eng, cl := testCluster(t, 50)
	fs := testFS(t, cl, lrc.NewXorbas())
	for i := 0; i < 10; i++ {
		if _, err := fs.AddFile("f", 10); err != nil {
			t.Fatal(err)
		}
	}
	victim := 5
	lost := fs.BlocksOn(victim)
	if lost == 0 {
		t.Skip("victim empty")
	}
	fs.KillNode(victim)
	// Let some repairs run, then the node returns.
	eng.RunUntil(120)
	fs.RestartNode(victim)
	eng.Run()
	for _, s := range fs.Stripes() {
		for pos := range s.Node {
			if s.Lost[pos] {
				t.Fatal("lost block after restart + drain")
			}
		}
	}
	if fs.Snapshot().Unrecoverable != 0 {
		t.Fatal("unrecoverable blocks in a single-failure scenario")
	}
}

// Decommissioning moved to the real datapath: internal/store's elastic
// membership (Decommission + Rebalancer) supersedes the simulation's
// CopyOutNode/DrainNode, keeping the §1.1 drain-ordering policy — see
// internal/store/rebalance.go and examples/decommission.
