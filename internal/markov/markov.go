// Package markov implements the reliability analysis of Section 4: a
// continuous-time Markov chain per stripe (Fig. 3) whose states count
// lost blocks, solved exactly for the mean time to data loss (MTTDL).
//
// States 0 … m−1 are transient (i blocks lost, still recoverable); state
// m = d, the code's minimum distance, is absorbing (data loss). Forward
// rates follow the paper: with i blocks lost, each of the n−i surviving
// blocks sits on an independently failing node, so λ_i = (n−i)·λ.
// Backward (repair) rates derive from the expected bytes a repair
// downloads: the code's per-state expected read count
// (lrc.Code.RepairStats, an exact enumeration of erasure patterns against
// the repair planner — the paper's "we determine the probabilities for
// invoking light or heavy decoder and thus compute the expected number of
// blocks to be downloaded"), the block size B, and the cross-rack
// bandwidth γ, plus an optional per-stream overhead that models MapReduce
// repair-job dispatch (see CalibratedParams).
//
// The per-stripe MTTDL is normalized by the stripe count C/(nB), Eq. (3).
package markov

import (
	"fmt"
	"math"

	"repro/internal/lrc"
)

// Params holds the cluster model parameters of Section 4.
type Params struct {
	// NodeMTTFYears is 1/λ in years (4 in the paper).
	NodeMTTFYears float64
	// BlockBytes is the block size B (256 MB in the paper).
	BlockBytes float64
	// BandwidthBitsPerSec is the cross-rack repair bandwidth γ
	// (1 Gb/s in the paper).
	BandwidthBitsPerSec float64
	// TotalDataBytes is the cluster's logical data C (30 PB).
	TotalDataBytes float64
	// PerStreamOverheadSec adds a fixed latency per block streamed during
	// repairs that run as RaidNode jobs, modelling MapReduce repair-job
	// dispatch and stream setup. HDFS-native re-replication is exempt.
	// Zero gives the pure bandwidth model.
	PerStreamOverheadSec float64
	// ParallelRepairs scales the repair rate at each state by the
	// expected number of lost blocks with pairwise-disjoint minimal read
	// sets: local repairs of losses in different LRC groups stream from
	// disjoint racks and proceed concurrently, while any two RS repairs
	// contend for the same k source blocks (so RS and replication are
	// unaffected by construction).
	ParallelRepairs bool
}

// FacebookParams are the Section 4 values: N=3000 nodes, C=30 PB,
// 1/λ = 4 years, B = 256 MB, γ = 1 Gb/s, no stream overhead.
func FacebookParams() Params {
	return Params{
		NodeMTTFYears:       4,
		BlockBytes:          256 << 20,
		BandwidthBitsPerSec: 1e9,
		TotalDataBytes:      30e15,
		ParallelRepairs:     true,
	}
}

// CalibratedParams are FacebookParams plus the per-stream overhead fitted
// so the RS(10,4) row reproduces the paper's Table 1 MTTDL (see
// CalibrateOverhead). The fitted value is ≈19 s per stream,
// consistent with the tens-of-minutes repair durations of Fig. 4c.
func CalibratedParams() Params {
	p := FacebookParams()
	p.PerStreamOverheadSec = CalibrateOverhead(lrc.NewRS104(), p, 3.3118e13)
	return p
}

const (
	secondsPerYear = 365 * 24 * 3600.0
	secondsPerDay  = 24 * 3600.0
)

// Chain is the per-stripe birth-death CTMC of Fig. 3.
type Chain struct {
	// Lambda[i] is the block-loss rate out of transient state i (per sec).
	Lambda []float64
	// Rho[i] is the repair rate from state i back to i−1 (per sec);
	// Rho[0] is unused.
	Rho []float64
}

// States returns the number of transient states (absorption occurs from
// the last one).
func (c *Chain) States() int { return len(c.Lambda) }

// BuildChain constructs the chain for a code under the given parameters.
// raidJob says whether a repair runs as a RaidNode MapReduce job, which
// opens streams to the deployed read set and pays PerStreamOverheadSec
// per stream; HDFS re-replication (false) reads one minimal copy and has
// no job dispatch. The per-state repair statistics come from exhaustive
// erasure-pattern enumeration (lrc.Code.RepairStats).
func BuildChain(c *lrc.Code, raidJob bool, p Params) (*Chain, error) {
	return buildChain(c, raidJob, p, repairStats(c, raidJob))
}

// repairStats enumerates repair statistics for every transient state once
// (stats[0] is unused); the enumeration is the expensive part, so
// calibration reuses it.
func repairStats(c *lrc.Code, raidJob bool) []lrc.RepairStats {
	stats := make([]lrc.RepairStats, c.MinDistance())
	for i := 1; i < len(stats); i++ {
		stats[i] = c.RepairStats(i, raidJob)
	}
	return stats
}

func buildChain(c *lrc.Code, raidJob bool, p Params, stats []lrc.RepairStats) (*Chain, error) {
	if p.NodeMTTFYears <= 0 || p.BlockBytes <= 0 || p.BandwidthBitsPerSec <= 0 {
		return nil, fmt.Errorf("markov: non-positive parameters")
	}
	lambda := 1 / (p.NodeMTTFYears * secondsPerYear)
	n := c.NStored()
	m := len(stats) // absorbing state index
	ch := &Chain{Lambda: make([]float64, m), Rho: make([]float64, m)}
	blockSec := p.BlockBytes * 8 / p.BandwidthBitsPerSec
	for i := 0; i < m; i++ {
		ch.Lambda[i] = float64(n-i) * lambda
		if i == 0 {
			continue
		}
		st := stats[i]
		if st.AvgReads <= 0 {
			return nil, fmt.Errorf("markov: %s has no repair path at state %d", c.Name(), i)
		}
		repairSec := st.AvgReads * blockSec
		if raidJob {
			repairSec += st.AvgReads * p.PerStreamOverheadSec
		}
		rate := 1 / repairSec
		if p.ParallelRepairs && st.AvgParallel > 1 {
			rate *= st.AvgParallel
		}
		ch.Rho[i] = rate
	}
	return ch, nil
}

// AbsorptionTime solves the chain exactly for the expected time from
// state 0 to absorption. First-step analysis gives
//
//	t_i = 1/σ_i + (λ_i/σ_i)·t_{i+1} + (ρ_i/σ_i)·t_{i−1},  σ_i = λ_i + ρ_i,
//
// with t_m = 0. Writing t_i = A_i + B_i·t_{i+1} and eliminating the
// backward terms yields B_i = 1 identically (den_i = σ_i − ρ_i·B_{i−1}
// collapses to λ_i), so the solution is the all-positive — hence
// numerically stable, no cancellation even when ρ/λ ~ 10⁶ — recursion
//
//	t_0 = Σ_{i=0}^{m−1} A_i,  A_0 = 1/λ_0,  A_i = (1 + ρ_i·A_{i−1})/λ_i.
func (c *Chain) AbsorptionTime() float64 {
	m := c.States()
	a := 1 / c.Lambda[0]
	t := a
	for i := 1; i < m; i++ {
		a = (1 + c.Rho[i]*a) / c.Lambda[i]
		t += a
	}
	return t
}

// Result is one scheme's Table 1 row.
type Result struct {
	Scheme          string
	StorageOverhead float64 // e.g. 2.0, 0.4, 0.6
	RepairTraffic   float64 // blocks read per single-block repair (1, 10–13, 5)
	MTTDLStripeSec  float64
	MTTDLDays       float64 // system MTTDL, Eq. (3), in days
}

// MTTDL computes the system MTTDL for a code (raidJob as in BuildChain):
// the per-stripe absorption time divided by the stripe count C/(nB),
// Eq. (3).
func MTTDL(c *lrc.Code, raidJob bool, p Params) (Result, error) {
	stats := repairStats(c, raidJob)
	ch, err := buildChain(c, raidJob, p, stats)
	if err != nil {
		return Result{}, err
	}
	stripeSec := ch.AbsorptionTime()
	stripeBytes := float64(c.NStored()) * p.BlockBytes
	numStripes := p.TotalDataBytes / stripeBytes
	return Result{
		Scheme:          c.Name(),
		StorageOverhead: c.StorageOverhead(),
		RepairTraffic:   stats[1].AvgReads,
		MTTDLStripeSec:  stripeSec,
		MTTDLDays:       stripeSec / numStripes / secondsPerDay,
	}, nil
}

// Table1 computes the paper's Table 1 for the three schemes under the
// given parameters: 3-replication — the (1, 2) code with no local
// parities — repaired by HDFS re-replication, and RS(10,4) and
// LRC(10,6,5), repaired by RaidNode jobs.
func Table1(p Params) ([]Result, error) {
	rep, err := lrc.New(lrc.Params{K: 1, GlobalParities: 2})
	if err != nil {
		return nil, err
	}
	rows := []struct {
		c       *lrc.Code
		raidJob bool
	}{{rep, false}, {lrc.NewRS104(), true}, {lrc.NewXorbas(), true}}
	out := make([]Result, 0, len(rows))
	for _, row := range rows {
		r, err := MTTDL(row.c, row.raidJob, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// CalibrateOverhead fits PerStreamOverheadSec so the system MTTDL of a
// code repaired by RaidNode jobs matches target days, by bisection. MTTDL
// decreases monotonically in the overhead (slower repairs → lower
// reliability).
func CalibrateOverhead(c *lrc.Code, p Params, targetDays float64) float64 {
	lo, hi := 0.0, 3600.0
	stats := repairStats(c, true)
	stripes := p.TotalDataBytes / (float64(c.NStored()) * p.BlockBytes)
	mttdl := func(ov float64) float64 {
		q := p
		q.PerStreamOverheadSec = ov
		ch, err := buildChain(c, true, q, stats)
		if err != nil {
			return math.NaN()
		}
		return ch.AbsorptionTime() / stripes / secondsPerDay
	}
	if mttdl(lo) < targetDays {
		return 0 // already below target with no overhead; nothing to fit
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mttdl(mid) > targetDays {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
