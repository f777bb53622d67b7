package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func testConfig() Config {
	return Config{Nodes: 10, NodeOutBps: 100, NodeInBps: 100, BucketSec: 10}
}

func TestValidate(t *testing.T) {
	bad := Config{Nodes: 1, NodeOutBps: 1, NodeInBps: 1}
	if bad.Validate() == nil {
		t.Error("1 node accepted")
	}
	bad = Config{Nodes: 5}
	if bad.Validate() == nil {
		t.Error("zero bandwidth accepted")
	}
	ok := Config{Nodes: 5, NodeOutBps: 1, NodeInBps: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.BucketSec != 300 {
		t.Error("defaults not filled")
	}
}

func TestKillRestartLiveNodes(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := New(eng, testConfig())
	if len(c.LiveNodes()) != 10 {
		t.Fatal("all nodes should start alive")
	}
	c.Kill(3)
	c.Kill(3) // idempotent
	if c.Alive(3) || len(c.LiveNodes()) != 9 {
		t.Fatal("kill failed")
	}
	c.Restart(3)
	if !c.Alive(3) {
		t.Fatal("restart failed")
	}
	if c.Alive(-1) || c.Alive(99) {
		t.Fatal("out-of-range nodes should not be alive")
	}
}

func TestTransferDeadEndpoints(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := New(eng, testConfig())
	c.Kill(2)
	if err := c.Transfer(2, 3, 100, TagRead, nil); err == nil {
		t.Error("dead source accepted")
	}
	if err := c.Transfer(3, 2, 100, TagRead, nil); err == nil {
		t.Error("dead destination accepted")
	}
}

func TestTransferMetrics(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := New(eng, testConfig())
	done := false
	if err := c.Transfer(0, 1, 1000, TagRead, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := c.Transfer(2, 3, 500, TagWrite, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("done callback not fired")
	}
	if math.Abs(c.M.NetOutTotal-1500) > 1e-6 {
		t.Fatalf("net out %f want 1500", c.M.NetOutTotal)
	}
	// Only TagRead counts as disk reads.
	if math.Abs(c.M.DiskReadTotal-1000) > 1e-6 {
		t.Fatalf("disk read %f want 1000", c.M.DiskReadTotal)
	}
	if c.M.NetOut.Total() != c.M.NetOutTotal {
		t.Fatal("series total inconsistent")
	}
}

// The disk cap binds egress: a node with slow disk serves slowly.
func TestDiskCapsEgress(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.DiskReadBps = 10 // much slower than the 100 B/s NIC
	c, _ := New(eng, cfg)
	var doneAt float64
	if err := c.Transfer(0, 1, 100, TagRead, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if math.Abs(doneAt-10) > 1e-6 {
		t.Fatalf("transfer took %f s, want 10 (disk-capped)", doneAt)
	}
}

func TestAddCPUSpreadsAcrossBuckets(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := New(eng, testConfig()) // bucket 10 s
	// 25 s of 50% CPU from t=0: buckets get 5, 5, 2.5 busy-seconds.
	c.AddCPU(25, 0.5)
	b := c.M.CPUBusy.Buckets()
	if len(b) != 3 || math.Abs(b[0]-5) > 1e-9 || math.Abs(b[1]-5) > 1e-9 || math.Abs(b[2]-2.5) > 1e-9 {
		t.Fatalf("buckets %v", b)
	}
	util := c.CPUUtilizationPercent(15)
	// bucket 0: 15 + 100·5/(10 nodes·10 s) = 20%.
	if math.Abs(util[0]-20) > 1e-9 {
		t.Fatalf("util %v", util)
	}
}

func TestCPUUtilizationClamped(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := New(eng, testConfig())
	c.AddCPU(10000, 1)
	for _, u := range c.CPUUtilizationPercent(50) {
		if u > 100 {
			t.Fatal("utilization above 100%")
		}
	}
}
