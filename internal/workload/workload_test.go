package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/lrc"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestFailureTraceShape(t *testing.T) {
	cfg := DefaultTrace()
	trace, err := FailureTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 31 {
		t.Fatalf("days %d", len(trace))
	}
	var vals []float64
	peak := 0
	for _, n := range trace {
		if n < 0 || n > cfg.Nodes {
			t.Fatalf("count %d out of range", n)
		}
		if n > peak {
			peak = n
		}
		vals = append(vals, float64(n))
	}
	s := stats.Summarize(vals)
	// Fig 1: typically ≥20 failures/day with bursts near 100.
	if s.Mean < 15 || s.Mean > 40 {
		t.Fatalf("mean %f outside the trace's regime", s.Mean)
	}
	if peak < 50 {
		t.Fatalf("no burst day (peak %d); Fig 1 shows spikes", peak)
	}
}

func TestFailureTraceDeterministic(t *testing.T) {
	a, _ := FailureTrace(DefaultTrace())
	b, _ := FailureTrace(DefaultTrace())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestFailureTraceValidation(t *testing.T) {
	if _, err := FailureTrace(TraceConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, mean := range []float64{0, 3, 21, 80} {
		var sum float64
		n := 4000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > 0.15*mean+0.5 {
			t.Fatalf("poisson(%f) sample mean %f", mean, got)
		}
	}
}

func TestFacebookFileBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := FacebookFileBlocks(rng, 3262)
	small, large := 0, 0
	var total int
	for _, s := range sizes {
		switch s {
		case 3:
			small++
		case 10:
			large++
		default:
			t.Fatalf("unexpected size %d", s)
		}
		total += s
	}
	frac := float64(small) / float64(len(sizes))
	if frac < 0.92 || frac > 0.96 {
		t.Fatalf("small-file fraction %f, want ≈0.94", frac)
	}
	avg := float64(total) / float64(len(sizes))
	if avg < 3.2 || avg > 3.6 {
		t.Fatalf("average blocks/file %f, want ≈3.4 (§5.3)", avg)
	}
}

func TestEC2Pattern(t *testing.T) {
	if len(EC2FailurePattern) != 8 {
		t.Fatal("eight failure events per §5.2")
	}
	sum := 0
	for _, n := range EC2FailurePattern {
		sum += n
	}
	if sum != 14 {
		t.Fatalf("total terminations %d want 14 (4×1+2×3+2×2)", sum)
	}
}

const mb = 1 << 20

func wcFixture(t *testing.T) (*sim.Engine, *hdfs.FS) {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{
		Nodes: 15, NodeOutBps: 12 * mb, NodeInBps: 12 * mb, BucketSec: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := hdfs.New(cl, lrc.NewXorbas(), hdfs.Config{
		BlockSizeBytes: 64 * mb, SlotsPerNode: 2,
		TaskLaunchSec: 5, FixerScanSec: 1e8,
		DeployedReads: true, DegradedTimeoutSec: 15,
		DecodeCPUSecPerRead: 0.2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs
}

func TestWordCountAllBlocksAvailable(t *testing.T) {
	eng, fs := wcFixture(t)
	stripes, err := fs.AddFile("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	var done *WordCount
	wc := SubmitWordCount(fs, "wc", stripes, 2*mb, func(w *WordCount) { done = w })
	eng.RunUntil(1e7)
	if done == nil || !wc.Job.Done() {
		t.Fatal("job did not finish")
	}
	if wc.Degraded != 0 {
		t.Fatalf("%d degraded tasks with all blocks present", wc.Degraded)
	}
	if wc.Job.Total() != 10 {
		t.Fatalf("task count %d want 10 (data blocks only)", wc.Job.Total())
	}
	if wc.Duration() <= 0 {
		t.Fatal("duration not recorded")
	}
}

func TestWordCountDegradedSlower(t *testing.T) {
	run := func(kill bool) (float64, int) {
		eng, fs := wcFixture(t)
		stripes, _ := fs.AddFile("f", 10)
		if kill {
			// Lose two data blocks (different groups → still readable).
			fs.KillNode(stripes[0].Node[0])
			fs.KillNode(stripes[0].Node[7])
		}
		var res *WordCount
		SubmitWordCount(fs, "wc", stripes, 2*mb, func(w *WordCount) { res = w })
		eng.RunUntil(1e7)
		if res == nil {
			t.Fatal("job did not finish")
		}
		return res.Duration(), res.Degraded
	}
	base, d0 := run(false)
	degraded, d1 := run(true)
	if d0 != 0 || d1 == 0 {
		t.Fatalf("degraded counts %d %d", d0, d1)
	}
	if degraded <= base {
		t.Fatalf("degraded run (%f) not slower than baseline (%f)", degraded, base)
	}
}
