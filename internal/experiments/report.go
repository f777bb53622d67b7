package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/lrc"
	"repro/internal/markov"
	"repro/internal/workload"
)

// Report is one table or figure of the evaluation: the ids `clustersim
// -exp` accepts for it, and a Render that runs its experiment on the
// paper's parameters (the EC2 runs behind Figs 4 and 5 load ec2Files
// files) and prints the result.
type Report struct {
	IDs    []string
	Render func(w io.Writer, ec2Files int) error
}

// Reports lists the evaluation in the order `clustersim -exp all` prints
// it.
var Reports = []Report{
	{[]string{"table1"}, func(w io.Writer, _ int) error { return Table1(w) }},
	{[]string{"fig1"}, func(w io.Writer, _ int) error { return Fig1(w) }},
	{[]string{"fig4"}, func(w io.Writer, files int) error { return renderEC2(w, files, Fig4) }},
	{[]string{"fig5"}, func(w io.Writer, files int) error { return renderEC2(w, files, Fig5) }},
	{[]string{"fig6"}, func(w io.Writer, _ int) error {
		rs, xo, err := both(func(s *lrc.Code) (*Fig6Result, error) {
			return RunFig6(s, []int{50, 100, 200}, DefaultEC2(0))
		})
		if err != nil {
			return err
		}
		Fig6(w, rs, xo)
		return nil
	}},
	{[]string{"fig7", "table2"}, func(w io.Writer, _ int) error {
		cfg := DefaultWorkload()
		base, err := RunWorkload(lrc.NewRS104(), false, cfg)
		if err != nil {
			return err
		}
		rs, xo, err := both(func(s *lrc.Code) (*WorkloadResult, error) { return RunWorkload(s, true, cfg) })
		if err != nil {
			return err
		}
		Fig7Table2(w, base, rs, xo)
		return nil
	}},
	{[]string{"trace"}, func(w io.Writer, _ int) error {
		rs, xo, err := both(func(s *lrc.Code) (*TraceResult, error) { return RunTraceDriven(s, DefaultTraceDriven()) })
		if err != nil {
			return err
		}
		for _, r := range []*TraceResult{rs, xo} {
			fmt.Fprintf(w, "Trace month %-16s: %3d node failures, %4d repairs (%d light/%d heavy), %.1f GB repair reads, %d blocks lost\n",
				r.Scheme, r.NodesFailed, r.BlocksRepaired, r.LightRepairs, r.HeavyRepairs, r.RepairTrafficGB, r.DataLossBlocks)
		}
		return nil
	}},
	{[]string{"table3"}, func(w io.Writer, _ int) error {
		rs, xo, err := both(func(s *lrc.Code) (*FacebookResult, error) { return RunFacebook(s, DefaultFacebook()) })
		if err != nil {
			return err
		}
		Table3(w, rs, xo)
		return nil
	}},
}

// renderEC2 runs the §5.2 failure sequence on both clusters and hands the
// pair to one of the two figures drawn from it.
func renderEC2(w io.Writer, files int, fig func(w io.Writer, rs, xorbas *EC2Result)) error {
	rs, xo, err := both(func(s *lrc.Code) (*EC2Result, error) { return RunEC2(s, DefaultEC2(files)) })
	if err != nil {
		return err
	}
	fig(w, rs, xo)
	return nil
}

// both runs one experiment on the HDFS-RS cluster and on the HDFS-Xorbas
// cluster.
func both[T any](run func(*lrc.Code) (T, error)) (rs, xorbas T, err error) {
	if rs, err = run(lrc.NewRS104()); err != nil {
		return rs, xorbas, err
	}
	xorbas, err = run(lrc.NewXorbas())
	return rs, xorbas, err
}

// Table1 computes and renders the paper's Table 1 under both the physical
// model and the paper-calibrated model (markov.CalibratedParams).
func Table1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: storage overhead, repair traffic, MTTDL")
	fmt.Fprintln(w, "  paper:  3-replication 2.3079E+10 | RS(10,4) 3.3118E+13 | LRC(10,6,5) 1.2180E+15 days")
	for _, mode := range []struct {
		name string
		p    markov.Params
	}{
		{"physical (γ=1Gb/s, no overhead)", markov.FacebookParams()},
		{"calibrated (per-stream overhead fit on RS row)", markov.CalibratedParams()},
	} {
		rows, err := markov.Table1(mode.p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  model: %s\n", mode.name)
		fmt.Fprintf(w, "  %-16s %-16s %-14s %s\n", "Scheme", "Storage overhead", "Repair traffic", "MTTDL (days)")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-16s %-16s %-14s %.4E\n", r.Scheme,
				fmt.Sprintf("%.1fx", r.StorageOverhead), fmt.Sprintf("%.1fx", r.RepairTraffic), r.MTTDLDays)
		}
	}
	return nil
}

// Fig1 renders the failure-trace figure: failed nodes per day.
func Fig1(w io.Writer) error {
	trace, err := workload.FailureTrace(workload.DefaultTrace())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig 1: failed nodes per day, one month, 3000-node cluster")
	for d, n := range trace {
		fmt.Fprintf(w, "  day %2d: %3d %s\n", d+1, n, strings.Repeat("#", n/2))
	}
	return nil
}

// Fig4 renders one EC2 run's per-event bars.
func Fig4(w io.Writer, rs, xorbas *EC2Result) {
	fmt.Fprintln(w, "Fig 4: per failure event (200-file experiment)")
	fmt.Fprintf(w, "  %-22s %12s %12s %12s\n", "event (lost RS/Xorbas)", "read GB", "net-out GB", "repair min")
	for i := range rs.Events {
		a, b := rs.Events[i], xorbas.Events[i]
		fmt.Fprintf(w, "  %d(%3d)/%d(%3d)  RS: %8.1f  %8.1f  %8.1f\n",
			a.NodesKilled, a.BlocksLost, b.NodesKilled, b.BlocksLost,
			a.HDFSReadGB, a.NetworkOutGB, a.RepairMinutes)
		fmt.Fprintf(w, "  %17s Xor: %8.1f  %8.1f  %8.1f\n", "",
			b.HDFSReadGB, b.NetworkOutGB, b.RepairMinutes)
	}
}

// Fig5 renders the 5-minute-resolution cluster series of one run pair.
func Fig5(w io.Writer, rs, xorbas *EC2Result) {
	fmt.Fprintln(w, "Fig 5: cluster time series, 5-minute buckets")
	n := len(rs.NetOutSeriesGB)
	if len(xorbas.NetOutSeriesGB) > n {
		n = len(xorbas.NetOutSeriesGB)
	}
	at := func(s []float64, i int) float64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	fmt.Fprintf(w, "  %6s | %21s | %21s | %21s\n", "t(min)", "net-out GB (RS/Xor)", "disk-read GB (RS/Xor)", "CPU %% (RS/Xor)")
	for i := 0; i < n; i++ {
		if at(rs.NetOutSeriesGB, i) < 0.05 && at(xorbas.NetOutSeriesGB, i) < 0.05 {
			continue // skip idle buckets for readability
		}
		fmt.Fprintf(w, "  %6d | %9.1f / %9.1f | %9.1f / %9.1f | %9.0f / %9.0f\n",
			i*5,
			at(rs.NetOutSeriesGB, i), at(xorbas.NetOutSeriesGB, i),
			at(rs.DiskReadSeriesGB, i), at(xorbas.DiskReadSeriesGB, i),
			at(rs.CPUPercent, i), at(xorbas.CPUPercent, i))
	}
}

// Fig6 renders the scatter points and least-squares fits.
func Fig6(w io.Writer, rs, xorbas *Fig6Result) {
	fmt.Fprintln(w, "Fig 6: metrics vs blocks lost (50/100/200-file experiments)")
	fmt.Fprintln(w, "  paper slopes: ≈11.5 (RS) vs ≈5.8 (Xorbas) blocks read per lost block")
	for _, r := range []*Fig6Result{rs, xorbas} {
		fmt.Fprintf(w, "  %s: read %.4f GB/block (%.1f blocks, R²=%.3f); traffic %.4f GB/block; duration %.3f min/block\n",
			r.Scheme, r.ReadFit.Slope, r.BlocksReadPerLost, r.ReadFit.R2,
			r.TrafficFit.Slope, r.DurationFit.Slope)
		for _, p := range r.Points {
			fmt.Fprintf(w, "    lost=%3d read=%7.1fGB net=%7.1fGB dur=%5.1fmin\n",
				p.BlocksLost, p.HDFSReadGB, p.NetworkOutGB, p.RepairMinutes)
		}
	}
}

// Fig7Table2 renders the workload experiment: the Fig 7 staircases and
// the Table 2 summary.
func Fig7Table2(w io.Writer, base, rs, xorbas *WorkloadResult) {
	fmt.Fprintln(w, "Fig 7: WordCount completion times (minutes, sorted)")
	fmt.Fprintf(w, "  all avail: %s\n", fmtSeries(base.JobMinutes))
	fmt.Fprintf(w, "  20%% missing RS:  %s (+%.2f%%)\n", fmtSeries(rs.JobMinutes), 100*(rs.AvgMinutes-base.AvgMinutes)/base.AvgMinutes)
	fmt.Fprintf(w, "  20%% missing LRC: %s (+%.2f%%)\n", fmtSeries(xorbas.JobMinutes), 100*(xorbas.AvgMinutes-base.AvgMinutes)/base.AvgMinutes)
	fmt.Fprintln(w, "  paper: +27.47% (RS), +11.20% (LRC)")
	fmt.Fprintln(w, "Table 2: repair impact on workload")
	fmt.Fprintf(w, "  %-20s %12s %12s\n", "", "read (GB)", "avg job (min)")
	fmt.Fprintf(w, "  %-20s %12.2f %12.1f\n", "all blocks avail", base.TotalReadGB, base.AvgMinutes)
	fmt.Fprintf(w, "  %-20s %12.2f %12.1f\n", "~20% missing, LRC", xorbas.TotalReadGB, xorbas.AvgMinutes)
	fmt.Fprintf(w, "  %-20s %12.2f %12.1f\n", "~20% missing, RS", rs.TotalReadGB, rs.AvgMinutes)
	fmt.Fprintln(w, "  paper: 30 GB/83 min | 43.88 GB/92 min (LRC) | 74.06 GB/106 min (RS)")
}

// Table3 renders the Facebook test-cluster rows.
func Table3(w io.Writer, rs, xorbas *FacebookResult) {
	fmt.Fprintln(w, "Table 3: Facebook test cluster, one DataNode termination")
	fmt.Fprintf(w, "  %-16s %8s %12s %10s %10s\n", "Scheme", "lost", "HDFS GB", "GB/block", "dur (min)")
	for _, r := range []*FacebookResult{rs, xorbas} {
		fmt.Fprintf(w, "  %-16s %8d %12.1f %10.3f %10.0f\n", r.Scheme, r.BlocksLost, r.HDFSReadGB, r.GBPerBlock, r.RepairMinutes)
	}
	fmt.Fprintln(w, "  paper: RS 369 lost, 486.6 GB, 1.318 GB/block, 26 min")
	fmt.Fprintln(w, "         Xorbas 563 lost, 330.8 GB, 0.58 GB/block, 19 min")
}

func fmtSeries(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", x)
	}
	return b.String()
}
