package lrc

import (
	"math"
	"testing"
)

// replication3 is 3-replication: the (1, 2) code with no local parities,
// one data block and two more copies.
func replication3(t testing.TB) *Code {
	t.Helper()
	c, err := New(Params{K: 1, GlobalParities: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// With k = 1, erasing every stored block is the first fatal pattern:
// MinDistance reaches e = n and must not build an empty generator.
func TestMinDistanceSingleDataBlock(t *testing.T) {
	if d := replication3(t).MinDistance(); d != 3 {
		t.Fatalf("MinDistance %d, want 3", d)
	}
}

// The (1, 2) code is 3-replication: three stored blocks, any one of which
// restores the others. Every single-loss plan reads 1 block under the
// minimal policy but 2 under the deployed one, which opens a stream to
// every survivor — so the simulator and the Markov model run replication
// with the minimal policy, HDFS re-replication's one-copy read.
func TestReplicationCode(t *testing.T) {
	c := replication3(t)
	if c.NStored() != 3 || c.K() != 1 {
		t.Fatalf("stored %d k %d, want 3 1", c.NStored(), c.K())
	}
	exists := fullMask(3, true)
	for lost := 0; lost < 3; lost++ {
		avail := fullMask(3, true)
		avail[lost] = false
		for deployed, want := range map[bool]int{false: 1, true: 2} {
			p, err := c.PlanRepair(lost, exists, avail, deployed)
			if err != nil || len(p.Reads) != want {
				t.Errorf("lost %d deployed=%v: plan %+v err %v, want %d reads", lost, deployed, p, err, want)
			}
		}
	}
	avail := []bool{false, true, false}
	if p, err := c.PlanRepair(0, exists, avail, true); err != nil || len(p.Reads) != 1 || p.Reads[0] != 1 {
		t.Fatalf("one survivor: plan %+v err %v, want reads [1]", p, err)
	}
	if _, err := c.PlanRepair(0, exists, fullMask(3, false), true); err == nil {
		t.Fatal("all copies lost should error")
	}
	if _, err := c.PlanRepair(5, exists, avail, true); err == nil {
		t.Fatal("bad index should error")
	}
	if _, err := c.PlanRepair(0, fullMask(2, true), avail, true); err == nil {
		t.Fatal("bad mask length should error")
	}
}

// The three codes Table 1 compares.
func table1Codes(t testing.TB) []*Code {
	return []*Code{replication3(t), NewRS104(), NewXorbas()}
}

// Table 1's storage-overhead and repair-traffic columns fall straight out
// of the three codes: overheads 2.0, 0.4, 0.6 and single-failure repair
// reads under the minimal policy 1×, 10×, 5×.
func TestTable1StaticColumns(t *testing.T) {
	for _, row := range []struct {
		c        *Code
		overhead float64
		reads    float64
	}{
		{replication3(t), 2.0, 1},
		{NewRS104(), 0.4, 10},
		{NewXorbas(), 0.6, 5},
	} {
		if got := row.c.StorageOverhead(); got != row.overhead {
			t.Errorf("%s: overhead %v, want %v", row.c.Name(), got, row.overhead)
		}
		if got := row.c.RepairStats(1, false).AvgReads; got != row.reads {
			t.Errorf("%s: minimal single-failure reads %v, want %v", row.c.Name(), got, row.reads)
		}
	}
	if st := NewXorbas().RepairStats(1, false); st.LightFraction != 1 {
		t.Errorf("LRC single-failure light fraction %v, want 1", st.LightFraction)
	}
}

// Failures tolerated is d − 1: 2 for 3-replication, 4 for both coded
// schemes (d = 5 for the LRC).
func TestFailureTolerance(t *testing.T) {
	for i, want := range []int{2, 4, 4} {
		c := table1Codes(t)[i]
		if got := c.MinDistance() - 1; got != want {
			t.Errorf("%s: tolerates %d failures, want %d", c.Name(), got, want)
		}
	}
}

func TestLRCSchemeNamesAndSlots(t *testing.T) {
	for i, want := range []struct {
		name      string
		stored, k int
	}{
		{"3-replication", 3, 1},
		{"RS (10, 4)", 14, 10},
		{"LRC (10, 6, 5)", 16, 10},
	} {
		c := table1Codes(t)[i]
		if c.Name() != want.name || c.NStored() != want.stored || c.K() != want.k {
			t.Errorf("got %q stored %d k %d, want %q %d %d", c.Name(), c.NStored(), c.K(), want.name, want.stored, want.k)
		}
	}
}

// A full stripe stores every position.
func TestFullStripeStoresEveryPosition(t *testing.T) {
	for _, c := range table1Codes(t) {
		if got := c.StoredCount(c.K()); got != c.NStored() {
			t.Errorf("%s: full stripe StoredCount %d != NStored %d", c.Name(), got, c.NStored())
		}
		n := 0
		for i := 0; i < c.NStored(); i++ {
			if c.Exists(i, c.K()) {
				n++
			}
		}
		if n != c.NStored() {
			t.Errorf("%s: Exists disagrees with NStored", c.Name())
		}
	}
}

// Deployed RS repair reads all 13 other blocks (§3.1.2).
func TestRSSchemeDeployedReads13(t *testing.T) {
	avail := fullMask(14, true)
	avail[3] = false
	plan, err := NewRS104().PlanRepair(3, fullMask(14, true), avail, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Light {
		t.Fatal("RS has no light decoder")
	}
	if len(plan.Reads) != 13 {
		t.Fatalf("deployed RS repair reads %d want 13 (§3.1.2)", len(plan.Reads))
	}
}

// A 3-block RS(10,4) file stores 3 data + 4 parities, and repairing one of
// its data blocks reads 3 blocks (3 real data unknowns), not 10 — the
// Table 3 effect.
func TestRSSchemeSmallFileExists(t *testing.T) {
	rs := NewRS104()
	if got := rs.StoredCount(3); got != 7 {
		t.Fatalf("StoredCount(3) = %d want 7", got)
	}
	if rs.Exists(5, 3) {
		t.Fatal("padding position should not exist")
	}
	if !rs.Exists(12, 3) {
		t.Fatal("parity should exist")
	}
	if rs.Exists(-1, 3) || rs.Exists(14, 3) {
		t.Fatal("out-of-range exists")
	}
	exists := make([]bool, 14)
	for i := range exists {
		exists[i] = rs.Exists(i, 3)
	}
	avail := append([]bool(nil), exists...)
	avail[1] = false
	plan, err := rs.PlanRepair(1, exists, avail, false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Light || len(plan.Reads) != 3 {
		t.Fatalf("RS plan %+v: want heavy with 3 reads", plan)
	}
}

func TestRepairStatsSingleErasure(t *testing.T) {
	// LRC: every single failure is light with exactly 5 reads; one lost
	// block can't parallelize beyond 1.
	st := NewXorbas().RepairStats(1, true)
	if st.AvgReads != 5 || st.LightFraction != 1 || st.AvgParallel != 1 {
		t.Fatalf("LRC single: %+v", st)
	}
	// RS: deployed reads all 13 others, never light.
	st = NewRS104().RepairStats(1, true)
	if st.AvgReads != 13 || st.LightFraction != 0 || st.AvgParallel != 1 {
		t.Fatalf("RS single: %+v", st)
	}
	// Replication reads one copy. The (1, 2) code has no local groups, so
	// no repair counts as light.
	st = replication3(t).RepairStats(1, false)
	if st.AvgReads != 1 || st.LightFraction != 0 || st.AvgParallel != 1 {
		t.Fatalf("rep single: %+v", st)
	}
}

func TestRepairStatsTwoErasures(t *testing.T) {
	// LRC at 2 erasures: the cheapest-first repair stays light whenever
	// some loss is lightly repairable.
	st := NewXorbas().RepairStats(2, true)
	if st.AvgReads < 5 || st.AvgReads > 9 {
		t.Fatalf("LRC avg reads at 2 erasures: %f", st.AvgReads)
	}
	if st.LightFraction <= 0.6 {
		t.Fatalf("LRC light fraction at 2 erasures: %f", st.LightFraction)
	}
	// Parallelism: two losses in different groups repair concurrently
	// (disjoint read sets); expect the average strictly above 1.
	if st.AvgParallel <= 1 || st.AvgParallel > 2 {
		t.Fatalf("LRC parallel at 2 erasures: %f", st.AvgParallel)
	}
	// RS repairs always contend for the same sources: parallel stays 1.
	st = NewRS104().RepairStats(2, true)
	if st.AvgParallel != 1 {
		t.Fatalf("RS parallel at 2 erasures: %f", st.AvgParallel)
	}
	if st.AvgReads != 12 {
		t.Fatalf("RS deployed reads at 2 erasures: %f want 12", st.AvgReads)
	}
	// Both surviving-copy plans read the one remaining copy.
	if st := replication3(t).RepairStats(2, false); st.AvgReads != 1 || st.AvgParallel != 1 {
		t.Fatalf("rep at 2 erasures: %+v", st)
	}
}

func TestRepairStatsBeyondTolerance(t *testing.T) {
	if st := replication3(t).RepairStats(3, false); st != (RepairStats{}) {
		t.Fatalf("all-copies-lost should yield zero stats, got %+v", st)
	}
}

// The two-erasure light fraction for Xorbas, counted independently: the
// patterns where any lost block has a light plan.
func TestRepairStatsLightFractionExact(t *testing.T) {
	c := NewXorbas()
	st := c.RepairStats(2, true)
	const n = 16
	exists := fullMask(n, true)
	total, light := 0, 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			avail := fullMask(n, true)
			avail[a], avail[b] = false, false
			anyLight := false
			for _, lost := range []int{a, b} {
				if p, err := c.PlanRepair(lost, exists, avail, true); err == nil && p.Light {
					anyLight = true
				}
			}
			total++
			if anyLight {
				light++
			}
		}
	}
	want := float64(light) / float64(total)
	if math.Abs(st.LightFraction-want) > 1e-12 {
		t.Fatalf("light fraction %f, independent count %f", st.LightFraction, want)
	}
}
