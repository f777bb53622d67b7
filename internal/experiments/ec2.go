// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5) on the simulated substrate. Each driver returns
// typed results; bench_test.go and cmd/clustersim print them in the
// paper's row/series formats, beside the paper's own numbers.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/lrc"
	"repro/internal/sim"
	"repro/internal/workload"
)

const mb = 1 << 20

// EC2Config collects the knobs of the §5.2 Amazon EC2 reproduction. The
// defaults model 50 m1.small slaves: ~100 Mb/s NICs, two map slots, tens
// of seconds of MapReduce job overhead — values chosen so the baseline
// repair durations land in Fig 4c's tens-of-minutes regime.
type EC2Config struct {
	Files       int
	Nodes       int
	NodeBps     float64
	BlockBytes  float64
	Seed        int64
	GapSec      float64 // idle time between failure events
	RepairSlots int
	// MRTrafficOverheadFactor adds job-machinery traffic (shuffle,
	// bookkeeping, speculative reads) proportional to decoder reads when
	// reporting Network Out, matching the paper's observation that
	// network traffic ≈ 2× HDFS bytes read (§5.2.2). The fluid simulation
	// itself moves only the real streams.
	MRTrafficOverheadFactor float64
}

// DefaultEC2 returns the §5.2 parameters with the 200-file load.
func DefaultEC2(files int) EC2Config {
	return EC2Config{
		Files:                   files,
		Nodes:                   50,
		NodeBps:                 12 * mb,
		BlockBytes:              64 * mb,
		Seed:                    1,
		GapSec:                  1800,
		RepairSlots:             8,
		MRTrafficOverheadFactor: 0.9,
	}
}

// EventResult is one failure event's row in Fig 4.
type EventResult struct {
	NodesKilled   int
	BlocksLost    int
	HDFSReadGB    float64
	NetworkOutGB  float64
	RepairMinutes float64
	LightRepairs  int
	HeavyRepairs  int
}

// EC2Result is a full §5.2 run of one cluster.
type EC2Result struct {
	Scheme string
	Files  int
	Events []EventResult
	// 5-minute bucket series for Fig 5 (GB and percent).
	NetOutSeriesGB   []float64
	DiskReadSeriesGB []float64
	CPUPercent       []float64
}

// TotalLost sums blocks lost across events.
func (r *EC2Result) TotalLost() int {
	n := 0
	for _, e := range r.Events {
		n += e.BlocksLost
	}
	return n
}

// RunEC2 executes the §5.2 failure sequence — four single, two triple and
// two double DataNode terminations — against a fresh cluster running the
// given scheme, and collects the Fig 4 per-event metrics plus the Fig 5
// time series.
func RunEC2(scheme *lrc.Code, cfg EC2Config) (*EC2Result, error) {
	if cfg.Files <= 0 {
		return nil, fmt.Errorf("experiments: need files")
	}
	fs, err := newFS(scheme, cfg.Nodes, cfg.NodeBps, hdfs.Config{
		BlockSizeBytes: cfg.BlockBytes, RepairMaxParallel: cfg.RepairSlots,
		TaskLaunchSec: 10, DecodeCPUSecPerRead: 0.5,
		DegradedTimeoutSec: 15, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Files; i++ {
		if _, err := fs.AddFile(fmt.Sprintf("file-%04d", i), workload.EC2FileBlocks); err != nil {
			return nil, err
		}
	}
	eng := fs.Cl.Eng
	rng := rand.New(rand.NewSource(cfg.Seed + 77))

	res := &EC2Result{Scheme: scheme.Name(), Files: cfg.Files}
	for _, kills := range workload.EC2FailurePattern {
		at := eng.Now() + cfg.GapSec
		victims := pickVictims(fs, rng, kills)
		before := fs.Snapshot()
		fs.ResetRepairWindow()
		lost := 0
		eng.ScheduleAt(at, func() {
			for _, v := range victims {
				lost += fs.BlocksOn(v)
				fs.KillNode(v)
			}
		})
		eng.Run() // drain: all repairs for this event complete
		d := fs.Delta(before)
		res.Events = append(res.Events, EventResult{
			NodesKilled:   kills,
			BlocksLost:    lost,
			HDFSReadGB:    d.HDFSBytesRead / 1e9,
			NetworkOutGB:  (d.NetOutBytes + cfg.MRTrafficOverheadFactor*d.HDFSBytesRead) / 1e9,
			RepairMinutes: fs.RepairDuration() / 60,
			LightRepairs:  d.LightRepairs,
			HeavyRepairs:  d.HeavyRepairs,
		})
	}
	// Fig 5 series.
	for _, b := range fs.Cl.M.NetOut.Buckets() {
		res.NetOutSeriesGB = append(res.NetOutSeriesGB, b/1e9)
	}
	// Fold the reporting-level MR overhead into the traffic series too,
	// attributing it to the buckets where decoder reads happened.
	for i, b := range fs.Cl.M.DiskRead.Buckets() {
		res.DiskReadSeriesGB = append(res.DiskReadSeriesGB, b/1e9)
		if i < len(res.NetOutSeriesGB) {
			res.NetOutSeriesGB[i] += cfg.MRTrafficOverheadFactor * b / 1e9
		}
	}
	res.CPUPercent = fs.Cl.CPUUtilizationPercent(18)
	return res, nil
}

// newFS builds one §5 testbed: a one-rack cluster of nodes with
// symmetric nodeBps NICs and a DRFS over it. What every experiment shares
// — two map slots per node, a 60 s BlockFixer scan, the deployed read-set
// policy — is set here; the caller fills in the rest of hc.
func newFS(scheme *lrc.Code, nodes int, nodeBps float64, hc hdfs.Config) (*hdfs.FS, error) {
	cl, err := cluster.New(sim.NewEngine(), cluster.Config{Nodes: nodes, NodeOutBps: nodeBps, NodeInBps: nodeBps})
	if err != nil {
		return nil, err
	}
	hc.SlotsPerNode, hc.FixerScanSec, hc.DeployedReads = 2, 60, true
	return hdfs.New(cl, scheme, hc)
}

// pickVictims selects live nodes storing at least one block, preferring a
// deterministic random draw (the paper terminated arbitrary DataNodes).
func pickVictims(fs *hdfs.FS, rng *rand.Rand, n int) []int {
	live := fs.Cl.LiveNodes()
	var candidates []int
	for _, nd := range live {
		if fs.BlocksOn(nd) > 0 {
			candidates = append(candidates, nd)
		}
	}
	if len(candidates) < n {
		candidates = live
	}
	perm := rng.Perm(len(candidates))
	victims := make([]int, 0, n)
	for _, i := range perm {
		victims = append(victims, candidates[i])
		if len(victims) == n {
			break
		}
	}
	return victims
}
