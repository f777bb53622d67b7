package experiments

import (
	"fmt"
	"sort"

	"repro/internal/hdfs"
	"repro/internal/lrc"
	"repro/internal/workload"
)

// WorkloadConfig parameterizes the §5.2.4 repair-under-workload
// experiment: two 15-slave clusters, ten WordCount jobs over five 3 GB
// files, with ~20% of the required blocks missing in the degraded runs.
type WorkloadConfig struct {
	Nodes      int
	NodeBps    float64
	BlockBytes float64
	// FileBlocks is blocks per 3 GB file (48 at 64 MB).
	FileBlocks int
	Files      int
	Jobs       int
	// ProcessBps is the WordCount map throughput (CPU-bound on
	// m1.small); calibrated so the all-available average lands near the
	// paper's 83 minutes.
	ProcessBps float64
	// MissingFraction kills enough nodes to lose about this fraction of
	// blocks (~0.2 in the paper).
	MissingFraction float64
	Seed            int64
}

// DefaultWorkload returns the §5.2.4 parameters.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Nodes: 15, NodeBps: 4 * mb, BlockBytes: 64 * mb,
		FileBlocks: 48, Files: 5, Jobs: 10,
		ProcessBps: 0.16 * mb, MissingFraction: 0.2, Seed: 3,
	}
}

// WorkloadResult is one cluster's Fig 7 / Table 2 outcome.
type WorkloadResult struct {
	Scheme string
	// JobMinutes are per-job completion times sorted ascending (Fig 7's
	// staircase).
	JobMinutes []float64
	AvgMinutes float64
	// TotalReadGB is Table 2's Total Bytes Read.
	TotalReadGB   float64
	DegradedTasks int
	MissingBlocks int
}

// RunWorkload executes the WordCount workload on a cluster using the
// scheme, with or without the ~20% block loss. This is the paper's
// "repair impact on workload" experiment: the BlockFixer's repair job
// runs under the same FairScheduler as the WordCount jobs, competing for
// map slots and network, while tasks that reach a still-missing block
// take the degraded-read path. Table 2's Total Bytes Read therefore
// includes both the job input and the repair/degraded reconstruction
// reads.
func RunWorkload(scheme *lrc.Code, degraded bool, cfg WorkloadConfig) (*WorkloadResult, error) {
	fs, err := newFS(scheme, cfg.Nodes, cfg.NodeBps, hdfs.Config{
		BlockSizeBytes: cfg.BlockBytes, RepairMaxParallel: 0, // repair job fair-shares slots
		TaskLaunchSec: 5, DecodeCPUSecPerRead: 0.5,
		DegradedTimeoutSec: 10, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	files := make([][]*hdfs.Stripe, cfg.Files)
	for i := range files {
		stripes, err := fs.AddFile(fmt.Sprintf("text-%d", i), cfg.FileBlocks)
		if err != nil {
			return nil, err
		}
		files[i] = stripes
	}

	res := &WorkloadResult{Scheme: scheme.Name()}
	if degraded {
		// Simulate block losses (§5.2.4): delete MissingFraction of the
		// required (data) blocks, spread round-robin across stripes and
		// across positions within a stripe, matching the paper's observed
		// reconstruction cost of ≈5 blocks per missing block for Xorbas
		// (losses land in distinct local groups).
		var all []*hdfs.Stripe
		for _, f := range files {
			all = append(all, f...)
		}
		required := cfg.Files * cfg.FileBlocks
		target := int(cfg.MissingFraction * float64(required))
		lost := 0
		for round := 0; lost < target && round < scheme.K(); round++ {
			// Alternate group halves: rounds walk positions 0, 5, 1, 6, …
			// so consecutive losses in one stripe land in different local
			// groups.
			pos := (round%2)*(scheme.K()/2) + round/2
			for _, s := range all {
				if lost >= target {
					break
				}
				if pos < s.DataCount && s.Available(pos) {
					fs.LoseBlock(s, pos)
					lost++
				}
			}
		}
		res.MissingBlocks = lost
	}

	before := fs.Snapshot()
	jobs := make([]*workload.WordCount, 0, cfg.Jobs)
	for j := 0; j < cfg.Jobs; j++ {
		stripes := files[j%cfg.Files]
		jobs = append(jobs, workload.SubmitWordCount(fs, fmt.Sprintf("wordcount-%d", j), stripes, cfg.ProcessBps, nil))
	}
	fs.Cl.Eng.Run()
	for _, wc := range jobs {
		if !wc.Job.Done() {
			return nil, fmt.Errorf("experiments: job %s did not finish", wc.Name)
		}
		res.JobMinutes = append(res.JobMinutes, wc.Duration()/60)
	}
	sort.Float64s(res.JobMinutes)
	var sum float64
	for _, m := range res.JobMinutes {
		sum += m
	}
	res.AvgMinutes = sum / float64(len(res.JobMinutes))
	d := fs.Delta(before)
	res.DegradedTasks = d.DegradedReads
	res.TotalReadGB = d.HDFSBytesRead / 1e9
	return res, nil
}
