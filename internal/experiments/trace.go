package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/hdfs"
	"repro/internal/lrc"
	"repro/internal/workload"
)

// TraceConfig drives a month-scale simulation: the Fig 1 failure trace
// replayed against a cluster (scaled down from the 3000-node production
// system), with failed nodes replaced after repair — the §1.1 regime
// where "it is quite typical to have 20 or more node failures per day"
// and repair traffic is a standing fraction of cluster bandwidth.
type TraceConfig struct {
	Days       int
	Nodes      int
	Files      int
	FileBlocks int
	NodeBps    float64
	BlockBytes float64
	// FailuresPerDay scales the trace to the simulated cluster size
	// (the production 21/day over 3000 nodes ≈ 0.7% of nodes per day).
	FailuresPerDay float64
	Seed           int64
}

// DefaultTraceDriven returns a laptop-scale month: 80 nodes, ~0.7% daily
// failure rate (matching the production trace's per-node rate).
func DefaultTraceDriven() TraceConfig {
	return TraceConfig{
		Days: 31, Nodes: 80, Files: 150, FileBlocks: 10,
		NodeBps: 40 * mb, BlockBytes: 64 * mb,
		FailuresPerDay: 0.6, Seed: 13,
	}
}

// TraceResult summarizes the month.
type TraceResult struct {
	Scheme          string
	NodesFailed     int
	BlocksRepaired  int
	LightRepairs    int
	HeavyRepairs    int
	DataLossBlocks  int
	RepairTrafficGB float64
	// RepairTrafficShare is repair bytes over total potential network
	// byte-seconds — the §1.1 "repair traffic is 10–20% of cluster
	// traffic" concern, relative to a nominal utilization baseline.
	AvgDailyRepairGB float64
}

// RunTraceDriven replays a scaled Fig 1 failure trace for cfg.Days
// simulated days. Each failed node is repaired by the BlockFixer and
// then replaced (restarted empty) at the next day boundary, modelling
// ops swapping hardware.
func RunTraceDriven(scheme *lrc.Code, cfg TraceConfig) (*TraceResult, error) {
	fs, err := newFS(scheme, cfg.Nodes, cfg.NodeBps, hdfs.Config{
		BlockSizeBytes: cfg.BlockBytes, RepairMaxParallel: 16,
		TaskLaunchSec: 10, DecodeCPUSecPerRead: 0.3,
		DegradedTimeoutSec: 15, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	eng, cl := fs.Cl.Eng, fs.Cl
	for i := 0; i < cfg.Files; i++ {
		if _, err := fs.AddFile(fmt.Sprintf("t%04d", i), cfg.FileBlocks); err != nil {
			return nil, err
		}
	}

	trace, err := workload.FailureTrace(workload.TraceConfig{
		Days: cfg.Days, Nodes: cfg.Nodes,
		MeanFailuresPerDay: cfg.FailuresPerDay, WeekendFactor: 0.7,
		BurstProb: 0.06, BurstMean: 4 * cfg.FailuresPerDay,
		Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	res := &TraceResult{Scheme: scheme.Name()}
	const daySec = 86400.0
	var downNodes []int
	for day, failures := range trace {
		dayStart := float64(day) * daySec
		// Replace yesterday's casualties with fresh (empty) hardware: the
		// node returns to service but its old blocks stay lost until the
		// BlockFixer re-creates them (unlike a transient RestartNode).
		replaced := downNodes
		downNodes = nil
		eng.ScheduleAt(dayStart, func() {
			for _, n := range replaced {
				cl.Restart(n)
			}
		})
		// Spread today's failures over the day.
		for f := 0; f < failures; f++ {
			at := dayStart + rng.Float64()*daySec
			eng.ScheduleAt(at, func() {
				live := cl.LiveNodes()
				if len(live) <= scheme.NStored() {
					return // keep the cluster placeable
				}
				victim := live[rng.Intn(len(live))]
				fs.KillNode(victim)
				downNodes = append(downNodes, victim)
				res.NodesFailed++
			})
		}
		eng.RunUntil(dayStart + daySec)
	}
	eng.Run() // drain outstanding repairs

	snap := fs.Snapshot()
	res.BlocksRepaired = snap.BlocksRepaired
	res.LightRepairs = snap.LightRepairs
	res.HeavyRepairs = snap.HeavyRepairs
	res.DataLossBlocks = snap.Unrecoverable
	res.RepairTrafficGB = snap.HDFSBytesRead / 1e9
	res.AvgDailyRepairGB = res.RepairTrafficGB / float64(cfg.Days)
	return res, nil
}
