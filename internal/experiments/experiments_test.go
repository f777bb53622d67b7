package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lrc"
)

// The §5.2 failure sequence: Xorbas reads 41–52% of RS's bytes and
// repairs faster on every event class — Fig 4's headline.
func TestEC2FailureSequenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	rs, err := RunEC2(lrc.NewRS104(), DefaultEC2(50))
	if err != nil {
		t.Fatal(err)
	}
	xo, err := RunEC2(lrc.NewXorbas(), DefaultEC2(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Events) != 8 || len(xo.Events) != 8 {
		t.Fatalf("want 8 events, got %d/%d", len(rs.Events), len(xo.Events))
	}
	var rsRead, xoRead float64
	for i := range rs.Events {
		a, b := rs.Events[i], xo.Events[i]
		if a.BlocksLost == 0 || b.BlocksLost == 0 {
			t.Fatalf("event %d lost no blocks", i)
		}
		rsRead += a.HDFSReadGB
		xoRead += b.HDFSReadGB
		if b.RepairMinutes >= a.RepairMinutes {
			t.Errorf("event %d: Xorbas repair %.1f min not faster than RS %.1f", i, b.RepairMinutes, a.RepairMinutes)
		}
		// Network-out ≈ 2× bytes read (§5.2.2).
		if ratio := a.NetworkOutGB / a.HDFSReadGB; ratio < 1.5 || ratio > 2.5 {
			t.Errorf("event %d: RS net/read ratio %.2f outside [1.5,2.5]", i, ratio)
		}
	}
	// Normalize per lost block before comparing (Xorbas loses ~16/14 more).
	perRS := rsRead / float64(rs.TotalLost())
	perXO := xoRead / float64(xo.TotalLost())
	if r := perXO / perRS; r < 0.30 || r > 0.60 {
		t.Errorf("per-block read ratio %.2f; paper band ≈0.41–0.52", r)
	}
	// All repairs in a single-node event are light for Xorbas.
	if xo.Events[0].HeavyRepairs != 0 {
		t.Errorf("single-node event used %d heavy repairs", xo.Events[0].HeavyRepairs)
	}
	if xo.Events[4].HeavyRepairs == 0 {
		t.Errorf("triple-node event should need some heavy repairs")
	}
}

func TestEC2Deterministic(t *testing.T) {
	a, err := RunEC2(lrc.NewXorbas(), DefaultEC2(30))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEC2(lrc.NewXorbas(), DefaultEC2(30))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged between identical runs", i)
		}
	}
}

func TestEC2Validation(t *testing.T) {
	cfg := DefaultEC2(0)
	if _, err := RunEC2(lrc.NewXorbas(), cfg); err == nil {
		t.Fatal("0 files accepted")
	}
}

// Fig 6: the fitted read slope for RS must be roughly 13 blocks per lost
// block (deployed read set) and Xorbas roughly 5–6, preserving the
// paper's ≈2× separation.
func TestFig6Slopes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	base := DefaultEC2(0)
	rs, err := RunFig6(lrc.NewRS104(), []int{30, 60}, base)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := RunFig6(lrc.NewXorbas(), []int{30, 60}, base)
	if err != nil {
		t.Fatal(err)
	}
	if rs.BlocksReadPerLost < 10 || rs.BlocksReadPerLost > 14 {
		t.Errorf("RS slope %.1f blocks/lost outside [10,14]", rs.BlocksReadPerLost)
	}
	if xo.BlocksReadPerLost < 4.5 || xo.BlocksReadPerLost > 7 {
		t.Errorf("Xorbas slope %.1f blocks/lost outside [4.5,7]", xo.BlocksReadPerLost)
	}
	if r := xo.BlocksReadPerLost / rs.BlocksReadPerLost; r > 0.6 {
		t.Errorf("slope ratio %.2f: the 2× separation collapsed", r)
	}
	if rs.ReadFit.R2 < 0.9 {
		t.Errorf("RS read fit R²=%.3f: bytes read should be near-linear in blocks lost", rs.ReadFit.R2)
	}
	if len(rs.Points) != 16 {
		t.Errorf("expected 16 scatter points (2 sizes × 8 events), got %d", len(rs.Points))
	}
}

// Fig 7 / Table 2: degraded runs are slower; RS is hit harder than LRC;
// total reads rank all-avail < LRC < RS.
func TestWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	cfg := DefaultWorkload()
	base, err := RunWorkload(lrc.NewRS104(), false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunWorkload(lrc.NewRS104(), true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := RunWorkload(lrc.NewXorbas(), true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.DegradedTasks != 0 || base.MissingBlocks != 0 {
		t.Fatal("baseline run should have no losses")
	}
	if !(base.AvgMinutes < xo.AvgMinutes && xo.AvgMinutes < rs.AvgMinutes) {
		t.Errorf("avg minutes ordering broken: %.1f / %.1f / %.1f", base.AvgMinutes, xo.AvgMinutes, rs.AvgMinutes)
	}
	if !(base.TotalReadGB < xo.TotalReadGB && xo.TotalReadGB < rs.TotalReadGB) {
		t.Errorf("read ordering broken: %.1f / %.1f / %.1f", base.TotalReadGB, xo.TotalReadGB, rs.TotalReadGB)
	}
	// The baseline reads ≈ the 10 jobs' logical input (30 GB).
	logical := float64(cfg.Jobs*cfg.FileBlocks) * cfg.BlockBytes / 1e9
	if base.TotalReadGB < logical*0.95 || base.TotalReadGB > logical*1.15 {
		t.Errorf("baseline read %.1f GB, want ≈%.1f", base.TotalReadGB, logical)
	}
	// Missing ≈ 20% of required blocks.
	req := cfg.Files * cfg.FileBlocks
	if frac := float64(rs.MissingBlocks) / float64(req); frac < 0.18 || frac > 0.22 {
		t.Errorf("missing fraction %.2f", frac)
	}
	// Job staircases are sorted.
	for i := 1; i < len(rs.JobMinutes); i++ {
		if rs.JobMinutes[i] < rs.JobMinutes[i-1] {
			t.Fatal("job minutes not sorted")
		}
	}
}

// Table 3: Xorbas loses more blocks (extra storage) but reads under half
// the GB per block and finishes faster.
func TestFacebookShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large simulation")
	}
	cfg := DefaultFacebook()
	cfg.Files = 800 // keep the test quick; distribution unchanged
	rs, err := RunFacebook(lrc.NewRS104(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := RunFacebook(lrc.NewXorbas(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if xo.StoredBlocks <= rs.StoredBlocks {
		t.Error("Xorbas should store more blocks (local parities)")
	}
	if xo.GBPerBlock >= rs.GBPerBlock*0.65 {
		t.Errorf("GB/block: Xorbas %.3f vs RS %.3f — want < 0.65×", xo.GBPerBlock, rs.GBPerBlock)
	}
	if xo.RepairMinutes >= rs.RepairMinutes {
		t.Errorf("durations: Xorbas %.0f vs RS %.0f", xo.RepairMinutes, rs.RepairMinutes)
	}
	// Small files dominate: RS per-block reads must be well under the
	// full-stripe 13 (zero-padded stripes read fewer blocks).
	if perBlock := rs.GBPerBlock * 1e9 / cfg.BlockBytes; perBlock > 9 {
		t.Errorf("RS reads %.1f blocks per lost block; small files should cap this below 9", perBlock)
	}
}

// Report renderers produce the paper's row structure without error.
func TestReportRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var buf bytes.Buffer
	if err := Fig1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "day 31") {
		t.Error("Fig1 missing days")
	}
	rs, _ := RunEC2(lrc.NewRS104(), DefaultEC2(20))
	xo, _ := RunEC2(lrc.NewXorbas(), DefaultEC2(20))
	buf.Reset()
	Fig4(&buf, rs, xo)
	Fig5(&buf, rs, xo)
	if !strings.Contains(buf.String(), "Fig 4") || !strings.Contains(buf.String(), "Fig 5") {
		t.Error("figure headers missing")
	}
}

// A month of the Fig 1 failure regime: the cluster survives (no data
// loss), Xorbas repairs are overwhelmingly light, and repair traffic is
// roughly half of RS's.
func TestTraceDrivenMonth(t *testing.T) {
	if testing.Short() {
		t.Skip("month-long simulation")
	}
	cfg := DefaultTraceDriven()
	rs, err := RunTraceDriven(lrc.NewRS104(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := RunTraceDriven(lrc.NewXorbas(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*TraceResult{rs, xo} {
		if r.NodesFailed < 5 {
			t.Fatalf("%s: only %d failures in a month; trace miswired", r.Scheme, r.NodesFailed)
		}
		if r.DataLossBlocks != 0 {
			t.Errorf("%s: %d blocks lost — tolerable failure regime should not lose data", r.Scheme, r.DataLossBlocks)
		}
		if r.BlocksRepaired == 0 {
			t.Errorf("%s: no repairs ran", r.Scheme)
		}
	}
	if rs.LightRepairs != 0 {
		t.Error("RS cannot repair lightly")
	}
	if frac := float64(xo.LightRepairs) / float64(xo.BlocksRepaired); frac < 0.9 {
		t.Errorf("Xorbas light fraction %.2f; single-node failures dominate so this should be ≥0.9", frac)
	}
	perRS := rs.RepairTrafficGB / float64(rs.BlocksRepaired)
	perXO := xo.RepairTrafficGB / float64(xo.BlocksRepaired)
	if ratio := perXO / perRS; ratio < 0.3 || ratio > 0.6 {
		t.Errorf("per-repair traffic ratio %.2f outside the ~2x-saving band", ratio)
	}
}

// The pyramid-code baseline (§6) runs the full cluster experiment like
// any other *lrc.Code: per-lost-block repair traffic sits strictly
// between the LRC's and RS's, because its data blocks repair locally but
// its global parities decode heavily.
func TestPyramidClusterBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	pyr, err := lrc.NewPyramid(lrc.Xorbas)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEC2(40)
	run := func(s *lrc.Code) float64 {
		r, err := RunEC2(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var read float64
		for _, e := range r.Events {
			read += e.HDFSReadGB
		}
		return read / float64(r.TotalLost())
	}
	perXO := run(lrc.NewXorbas())
	perPyr := run(pyr)
	perRS := run(lrc.NewRS104())
	if !(perXO < perPyr && perPyr < perRS) {
		t.Fatalf("per-block read GB ordering broken: LRC %.3f, pyramid %.3f, RS %.3f", perXO, perPyr, perRS)
	}
}
