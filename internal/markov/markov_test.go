package markov

import (
	"math"
	"strings"
	"testing"

	"repro/internal/lrc"
)

func TestFacebookParams(t *testing.T) {
	p := FacebookParams()
	if p.NodeMTTFYears != 4 || p.BlockBytes != 256<<20 || p.BandwidthBitsPerSec != 1e9 || p.TotalDataBytes != 30e15 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

// replication3 is 3-replication: the (1, 2) code with no local parities.
func replication3(t testing.TB) *lrc.Code {
	t.Helper()
	c, err := lrc.New(lrc.Params{K: 1, GlobalParities: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildChainShape(t *testing.T) {
	p := FacebookParams()
	ch, err := BuildChain(replication3(t), false, p)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3 for replication: 3 transient states (0,1,2), absorb at 3.
	if ch.States() != 3 {
		t.Fatalf("replication states %d want 3", ch.States())
	}
	// λ_i = (3−i)λ decreasing.
	if !(ch.Lambda[0] > ch.Lambda[1] && ch.Lambda[1] > ch.Lambda[2]) {
		t.Fatal("lambda should decrease with state")
	}
	lambda := 1 / (4 * secondsPerYear)
	if math.Abs(ch.Lambda[0]-3*lambda)/(3*lambda) > 1e-12 {
		t.Fatalf("lambda0 = %e want %e", ch.Lambda[0], 3*lambda)
	}
	// ρ = γ/B for replication: one 256 MB block at 1 Gb/s ≈ 2.147 s.
	want := 1 / (256 << 20 * 8 / 1e9)
	if math.Abs(ch.Rho[1]-want)/want > 1e-12 {
		t.Fatalf("rho1 = %e want %e", ch.Rho[1], want)
	}

	// Coded schemes: 5 transient states (Fig. 3).
	for _, s := range []*lrc.Code{lrc.NewRS104(), lrc.NewXorbas()} {
		ch, err := BuildChain(s, true, p)
		if err != nil {
			t.Fatal(err)
		}
		if ch.States() != 5 {
			t.Fatalf("%s states %d want 5", s.Name(), ch.States())
		}
	}
}

func TestBuildChainValidation(t *testing.T) {
	bad := FacebookParams()
	bad.BlockBytes = 0
	if _, err := BuildChain(replication3(t), false, bad); err == nil {
		t.Fatal("zero block size accepted")
	}
}

// Closed-form check: for a 2-transient-state chain (tolerates 1 failure),
// absorption time is t0 = 1/λ0 + (1 + ρ1/λ0)/λ1, matching the recursion.
func TestAbsorptionTimeClosedForm(t *testing.T) {
	ch := &Chain{Lambda: []float64{2, 3}, Rho: []float64{0, 5}}
	want := 1/2.0 + (1+5.0/2)/3
	if got := ch.AbsorptionTime(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %f want %f", got, want)
	}
}

// With no repairs the chain is a pure death process: t0 = Σ 1/λ_i.
func TestAbsorptionTimeNoRepairs(t *testing.T) {
	ch := &Chain{Lambda: []float64{1, 2, 4}, Rho: []float64{0, 0, 0}}
	want := 1.0 + 0.5 + 0.25
	if got := ch.AbsorptionTime(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %f want %f", got, want)
	}
}

// Monotonicity: faster repairs (larger ρ) must increase absorption time.
func TestAbsorptionMonotoneInRepairRate(t *testing.T) {
	base := &Chain{Lambda: []float64{1e-7, 1e-7, 1e-7}, Rho: []float64{0, 0.01, 0.01}}
	fast := &Chain{Lambda: []float64{1e-7, 1e-7, 1e-7}, Rho: []float64{0, 0.02, 0.02}}
	if fast.AbsorptionTime() <= base.AbsorptionTime() {
		t.Fatal("faster repair should raise MTTDL")
	}
}

// Numerical stability: ρ/λ ~ 10^6 over five states must not lose the
// leading terms (this chain broke a naive elimination with ~10^6×
// error amplification per state).
func TestAbsorptionTimeStability(t *testing.T) {
	lambda := []float64{1.11e-7, 1.03e-7, 9.51e-8, 8.72e-8, 7.93e-8}
	rho := []float64{0, 0.0358, 0.0388, 0.0423, 0.0466}
	ch := &Chain{Lambda: lambda, Rho: rho}
	got := ch.AbsorptionTime()
	// Independent computation of Σ A_i with Kahan-style verification.
	a := 1 / lambda[0]
	want := a
	for i := 1; i < 5; i++ {
		a = (1 + rho[i]*a) / lambda[i]
		want += a
	}
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("got %e want %e", got, want)
	}
	if got < 1e29 {
		t.Fatalf("absorption %e suspiciously low: numerical instability", got)
	}
}

// Table 1 reproduction, physical model: the replication row must land
// within 10% of the paper's 2.3079e10 days with zero tuning (the model
// anchor), and the ordering replication ≪ RS < LRC must hold with RS at
// least 3 orders above replication and LRC above RS.
func TestTable1PhysicalShape(t *testing.T) {
	rows, err := Table1(FacebookParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	rep, rs, lrcRow := rows[0], rows[1], rows[2]
	if math.Abs(rep.MTTDLDays-2.3079e10)/2.3079e10 > 0.10 {
		t.Errorf("replication MTTDL %.4e days; paper 2.3079e10 (anchor must match within 10%%)", rep.MTTDLDays)
	}
	if rs.MTTDLDays < rep.MTTDLDays*1e3 {
		t.Errorf("RS %.3e not ≫ replication %.3e", rs.MTTDLDays, rep.MTTDLDays)
	}
	if lrcRow.MTTDLDays < rs.MTTDLDays*2 {
		t.Errorf("LRC %.3e not above RS %.3e", lrcRow.MTTDLDays, rs.MTTDLDays)
	}
	// Static columns.
	if rep.StorageOverhead != 2.0 || rs.StorageOverhead != 0.4 || lrcRow.StorageOverhead != 0.6 {
		t.Error("storage overhead column wrong")
	}
	if rep.RepairTraffic != 1 || lrcRow.RepairTraffic != 5 {
		t.Error("repair traffic column wrong")
	}
	if !(rs.RepairTraffic >= 10 && rs.RepairTraffic <= 13) {
		t.Errorf("RS repair traffic %f outside [10,13]", rs.RepairTraffic)
	}
}

// Calibrated model: fitting the per-stream overhead on the RS row
// reproduces the paper's RS MTTDL exactly and keeps LRC roughly an order
// of magnitude above (paper: 1.5 orders).
func TestTable1Calibrated(t *testing.T) {
	p := CalibratedParams()
	if p.PerStreamOverheadSec <= 0 || p.PerStreamOverheadSec > 120 {
		t.Fatalf("calibrated overhead %f s implausible", p.PerStreamOverheadSec)
	}
	rows, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	rs, lrcRow := rows[1], rows[2]
	if math.Abs(rs.MTTDLDays-3.3118e13)/3.3118e13 > 0.01 {
		t.Errorf("calibrated RS %.4e days, want 3.3118e13", rs.MTTDLDays)
	}
	ratio := lrcRow.MTTDLDays / rs.MTTDLDays
	if ratio < 5 || ratio > 100 {
		t.Errorf("LRC/RS MTTDL ratio %.1f outside [5,100] (paper: 36.8)", ratio)
	}
}

// The replication row is re-replication: one copy read per repair. As a
// RaidNode job, the (1, 2) code would stream from both survivors.
func TestReplicationRowReadsOneCopy(t *testing.T) {
	rep := replication3(t)
	for _, c := range []struct {
		raidJob bool
		reads   float64
	}{{false, 1}, {true, 2}} {
		r, err := MTTDL(rep, c.raidJob, FacebookParams())
		if err != nil {
			t.Fatal(err)
		}
		if r.RepairTraffic != c.reads {
			t.Errorf("raidJob=%v: repair traffic %v, want %v", c.raidJob, r.RepairTraffic, c.reads)
		}
	}
}

func TestCalibrateOverheadBelowTarget(t *testing.T) {
	// If the target exceeds the zero-overhead MTTDL, calibration returns 0.
	p := FacebookParams()
	if got := CalibrateOverhead(lrc.NewRS104(), p, 1e30); got != 0 {
		t.Fatalf("got %f want 0", got)
	}
}

func TestMTTDLStripeVsSystem(t *testing.T) {
	p := FacebookParams()
	r, err := MTTDL(replication3(t), false, p)
	if err != nil {
		t.Fatal(err)
	}
	stripes := p.TotalDataBytes / (3 * p.BlockBytes)
	want := r.MTTDLStripeSec / stripes / secondsPerDay
	if math.Abs(r.MTTDLDays-want)/want > 1e-12 {
		t.Fatal("Eq. (3) normalization inconsistent")
	}
}

// RepairStats parallelism sanity at the chain level: disabling parallel
// repairs must not raise the LRC MTTDL.
func TestParallelRepairsEffect(t *testing.T) {
	p := FacebookParams()
	withPar, err := MTTDL(lrc.NewXorbas(), true, p)
	if err != nil {
		t.Fatal(err)
	}
	p.ParallelRepairs = false
	without, err := MTTDL(lrc.NewXorbas(), true, p)
	if err != nil {
		t.Fatal(err)
	}
	if without.MTTDLDays > withPar.MTTDLDays {
		t.Fatal("parallel repairs should not reduce MTTDL")
	}
	// RS must be unaffected: its repairs always share sources.
	p2 := FacebookParams()
	a, _ := MTTDL(lrc.NewRS104(), true, p2)
	p2.ParallelRepairs = false
	b, _ := MTTDL(lrc.NewRS104(), true, p2)
	if math.Abs(a.MTTDLDays-b.MTTDLDays)/b.MTTDLDays > 1e-9 {
		t.Fatalf("RS MTTDL changed with parallelism: %e vs %e", a.MTTDLDays, b.MTTDLDays)
	}
}

func BenchmarkTable1(b *testing.B) {
	p := FacebookParams()
	for i := 0; i < b.N; i++ {
		if _, err := Table1(p); err != nil {
			b.Fatal(err)
		}
	}
}

// Describe renders the Fig 3 chain: 5 transient states for the coded
// schemes with both rate families.
func TestDescribeFig3(t *testing.T) {
	ch, err := BuildChain(lrc.NewXorbas(), true, FacebookParams())
	if err != nil {
		t.Fatal(err)
	}
	s := ch.Describe()
	for _, want := range []string{"states 0..4", "state 5 = data loss", "λ0", "ρ4", "repair"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Describe missing %q:\n%s", want, s)
		}
	}
}
