package experiments

import (
	"repro/internal/lrc"
	"repro/internal/stats"
)

// ScatterPoint is one failure event in Fig 6's scatter plots.
type ScatterPoint struct {
	BlocksLost    int
	HDFSReadGB    float64
	NetworkOutGB  float64
	RepairMinutes float64
}

// Fig6Result aggregates the three EC2 experiments (50/100/200 files) for
// one scheme, with the least-squares fits the paper draws.
type Fig6Result struct {
	Scheme string
	Points []ScatterPoint
	// Fits of each metric against blocks lost.
	ReadFit, TrafficFit, DurationFit stats.Fit
	// BlocksReadPerLost is the headline slope in block units: the paper
	// estimates 11.5 for HDFS-RS and 5.8 for HDFS-Xorbas (§5.2.1).
	BlocksReadPerLost float64
}

// RunFig6 runs the 50-, 100- and 200-file experiments for a scheme and
// fits the Fig 6 lines.
func RunFig6(scheme *lrc.Code, sizes []int, base EC2Config) (*Fig6Result, error) {
	if len(sizes) == 0 {
		sizes = []int{50, 100, 200}
	}
	res := &Fig6Result{Scheme: scheme.Name()}
	for i, files := range sizes {
		cfg := base
		cfg.Files = files
		cfg.Seed = base.Seed + int64(i)*101
		run, err := RunEC2(scheme, cfg)
		if err != nil {
			return nil, err
		}
		for _, e := range run.Events {
			res.Points = append(res.Points, ScatterPoint{
				BlocksLost:    e.BlocksLost,
				HDFSReadGB:    e.HDFSReadGB,
				NetworkOutGB:  e.NetworkOutGB,
				RepairMinutes: e.RepairMinutes,
			})
		}
	}
	var x, read, traffic, dur []float64
	for _, p := range res.Points {
		x = append(x, float64(p.BlocksLost))
		read = append(read, p.HDFSReadGB)
		traffic = append(traffic, p.NetworkOutGB)
		dur = append(dur, p.RepairMinutes)
	}
	res.ReadFit = stats.LeastSquares(x, read)
	res.TrafficFit = stats.LeastSquares(x, traffic)
	res.DurationFit = stats.LeastSquares(x, dur)
	res.BlocksReadPerLost = res.ReadFit.Slope * 1e9 / base.BlockBytes
	return res, nil
}
