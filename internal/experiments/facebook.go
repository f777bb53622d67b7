package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/hdfs"
	"repro/internal/lrc"
	"repro/internal/workload"
)

// FacebookConfig parameterizes the §5.3 test-cluster experiment: 35
// nodes, 3262 files (≈2.7 TB logical) with 256 MB blocks and the
// production small-file distribution (94% 3-block files), one random
// DataNode termination.
type FacebookConfig struct {
	Nodes      int
	Files      int
	BlockBytes float64
	NodeBps    float64
	Seed       int64
}

// DefaultFacebook returns the §5.3 parameters.
func DefaultFacebook() FacebookConfig {
	return FacebookConfig{
		Nodes: 35, Files: 3262,
		BlockBytes: 256 * mb, NodeBps: 60 * mb,
		Seed: 9,
	}
}

// FacebookResult is one scheme's Table 3 row.
type FacebookResult struct {
	Scheme        string
	BlocksLost    int
	HDFSReadGB    float64
	GBPerBlock    float64
	RepairMinutes float64
	StoredBlocks  int
	LogicalTB     float64
}

// RunFacebook deploys the scheme on the Facebook test-cluster workload,
// terminates one random DataNode, and reports the Table 3 metrics.
func RunFacebook(scheme *lrc.Code, cfg FacebookConfig) (*FacebookResult, error) {
	fs, err := newFS(scheme, cfg.Nodes, cfg.NodeBps, hdfs.Config{
		BlockSizeBytes: cfg.BlockBytes, RepairMaxParallel: 16,
		TaskLaunchSec: 10, DecodeCPUSecPerRead: 0.5,
		DegradedTimeoutSec: 15, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := workload.FacebookFileBlocks(rng, cfg.Files)
	dataBlocks := 0
	for i, blocks := range sizes {
		if _, err := fs.AddFile(fmt.Sprintf("fb-%05d", i), blocks); err != nil {
			return nil, err
		}
		dataBlocks += blocks
	}

	victim := pickVictims(fs, rng, 1)[0]
	lost := fs.BlocksOn(victim)
	before := fs.Snapshot()
	fs.ResetRepairWindow()
	fs.KillNode(victim)
	fs.Cl.Eng.Run()
	d := fs.Delta(before)

	res := &FacebookResult{
		Scheme:        scheme.Name(),
		BlocksLost:    lost,
		HDFSReadGB:    d.HDFSBytesRead / 1e9,
		RepairMinutes: fs.RepairDuration() / 60,
		StoredBlocks:  fs.TotalBlocksStored(),
		LogicalTB:     float64(dataBlocks) * cfg.BlockBytes / 1e12,
	}
	if lost > 0 {
		res.GBPerBlock = res.HDFSReadGB / float64(lost)
	}
	return res, nil
}
