package core

import (
	"testing"
)

func full(n int, v bool) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = v
	}
	return m
}

// Table 1's storage-overhead and repair-traffic columns fall straight out
// of the Scheme interface.
func TestTable1StaticColumns(t *testing.T) {
	rep, err := NewReplication(3)
	if err != nil {
		t.Fatal(err)
	}
	rsS := NewRS104()
	xor := NewXorbas()

	if got := rep.StorageOverhead(); got != 2.0 {
		t.Errorf("replication overhead %f want 2.0", got)
	}
	if got := rsS.StorageOverhead(); got != 0.4 {
		t.Errorf("RS overhead %f want 0.4", got)
	}
	if got := xor.StorageOverhead(); got != 0.6 {
		t.Errorf("LRC overhead %f want 0.6", got)
	}

	// Repair traffic (single failure, minimal reads): 1x, 10x, 5x.
	repReads := RepairStats(rep, 1).AvgReads
	if repReads != 1 {
		t.Errorf("replication repair reads %f want 1", repReads)
	}
	avail := full(14, true)
	avail[0] = false
	reads, _, err := rsS.PlanRepair(0, full(14, true), avail, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 10 {
		t.Errorf("RS minimal repair reads %d want 10", len(reads))
	}
	st := RepairStats(xor, 1)
	if lrcReads, lightFrac := st.AvgReads, st.LightFraction; lrcReads != 5 || lightFrac != 1 {
		t.Errorf("LRC repair reads %f (light %f) want 5 (1)", lrcReads, lightFrac)
	}
}

func TestFailureTolerance(t *testing.T) {
	rep, _ := NewReplication(3)
	if rep.FailuresTolerated() != 2 {
		t.Error("replication should tolerate 2")
	}
	if NewRS104().FailuresTolerated() != 4 {
		t.Error("RS(10,4) should tolerate 4")
	}
	if NewXorbas().FailuresTolerated() != 4 {
		t.Error("LRC(10,6,5) should tolerate 4 (d=5)")
	}
}

func TestReplicationPlanRepair(t *testing.T) {
	rep, _ := NewReplication(3)
	avail := []bool{false, true, true}
	reads, light, err := rep.PlanRepair(0, full(3, true), avail, true)
	if err != nil || !light || len(reads) != 1 {
		t.Fatalf("reads=%v light=%v err=%v", reads, light, err)
	}
	if _, _, err := rep.PlanRepair(0, full(3, true), full(3, false), true); err == nil {
		t.Fatal("all copies lost should error")
	}
	if _, _, err := rep.PlanRepair(5, full(3, true), avail, true); err == nil {
		t.Fatal("bad index should error")
	}
	if _, _, err := rep.PlanRepair(0, full(2, true), avail, true); err == nil {
		t.Fatal("bad mask length should error")
	}
}

func TestNewReplicationValidation(t *testing.T) {
	if _, err := NewReplication(1); err == nil {
		t.Fatal("factor 1 accepted")
	}
}

func TestRSSchemeDeployedReads13(t *testing.T) {
	s := NewRS104()
	avail := full(14, true)
	avail[3] = false
	reads, light, err := s.PlanRepair(3, full(14, true), avail, true)
	if err != nil {
		t.Fatal(err)
	}
	if light {
		t.Fatal("RS has no light decoder")
	}
	if len(reads) != 13 {
		t.Fatalf("deployed RS repair reads %d want 13 (§3.1.2)", len(reads))
	}
}

func TestRSSchemeSmallFileExists(t *testing.T) {
	s := NewRS104()
	// A 3-block file: 3 data + 4 parity stored.
	if got := s.StoredCount(3); got != 7 {
		t.Fatalf("StoredCount(3) = %d want 7", got)
	}
	if s.Exists(5, 3) {
		t.Fatal("padding position should not exist")
	}
	if !s.Exists(12, 3) {
		t.Fatal("parity should exist")
	}
	if s.Exists(-1, 3) || s.Exists(14, 3) {
		t.Fatal("out-of-range exists")
	}
	// Repairing a data block of a 3-block stripe reads 3 blocks (3 real
	// data unknowns), not 10 — the Table 3 effect.
	exists := make([]bool, 14)
	for i := range exists {
		exists[i] = s.Exists(i, 3)
	}
	avail := append([]bool(nil), exists...)
	avail[1] = false
	reads, _, err := s.PlanRepair(1, exists, avail, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 3 {
		t.Fatalf("minimal small-stripe repair reads %d want 3", len(reads))
	}
}

func TestLRCSchemeNamesAndSlots(t *testing.T) {
	x := NewXorbas()
	if x.Name() != "LRC (10, 6, 5)" {
		t.Errorf("name %q", x.Name())
	}
	if x.Slots() != 16 || x.DataBlocks() != 10 {
		t.Error("slots/datablocks wrong")
	}
	rep, _ := NewReplication(3)
	if rep.Name() != "3-replication" || rep.Slots() != 3 || rep.DataBlocks() != 1 {
		t.Error("replication accessors wrong")
	}
	s := NewRS104()
	if s.Name() != "RS (10, 4)" || s.Slots() != 14 {
		t.Error("rs accessors wrong")
	}
}

func TestSchemeInterfaceCompliance(t *testing.T) {
	var schemes []Scheme
	rep, _ := NewReplication(3)
	schemes = append(schemes, rep, NewRS104(), NewXorbas())
	for _, s := range schemes {
		if s.StoredCount(s.DataBlocks()) != s.Slots() {
			t.Errorf("%s: full stripe StoredCount %d != Slots %d", s.Name(), s.StoredCount(s.DataBlocks()), s.Slots())
		}
		exists := make([]bool, s.Slots())
		n := 0
		for i := range exists {
			exists[i] = s.Exists(i, s.DataBlocks())
			if exists[i] {
				n++
			}
		}
		if n != s.Slots() {
			t.Errorf("%s: Exists disagrees with Slots", s.Name())
		}
	}
}
