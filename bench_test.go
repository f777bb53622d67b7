// Package main's bench harness regenerates every table and figure of the
// paper's evaluation (Section 5) plus the ablations. Run with:
//
//	go test -bench=. -benchmem
//
// Each Benchmark prints the paper-style rows once (on the first
// iteration), the paper's own numbers beside them, and then times the
// underlying experiment.
//
// The system's own performance — kernel, encode, store, wire and gateway
// throughput, repair traffic — is measured by the repo benchmark in
// bench/ (see bench/README.md), not here. The three datapath benchmarks
// at the bottom of this file are the ones with no rung or workload
// there yet.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/lrc"
	"repro/internal/markov"
	"repro/internal/meta"
	"repro/internal/pattern"
	"repro/internal/store"
)

// printOnce guards the one-time report printing inside benchmarks.
var printOnce sync.Map

func once(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
	}
}

// report prints one of experiments.Reports, by id, once per process.
func report(b *testing.B, id string) {
	once(id, func() {
		for _, r := range experiments.Reports {
			if slices.Contains(r.IDs, id) {
				if err := r.Render(os.Stdout, 200); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTable1MTTDL regenerates Table 1: storage overhead, repair
// traffic, and MTTDL for 3-replication, RS(10,4) and LRC(10,6,5).
func BenchmarkTable1MTTDL(b *testing.B) {
	report(b, "table1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := markov.Table1(markov.FacebookParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2RepairUnderWorkload regenerates Table 2 and Fig 7: ten
// WordCount jobs with ~20% of required blocks missing.
func BenchmarkTable2RepairUnderWorkload(b *testing.B) {
	cfg := experiments.DefaultWorkload()
	report(b, "table2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWorkload(lrc.NewXorbas(), true, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3FacebookCluster regenerates Table 3: the 35-node
// Facebook test cluster with the production small-file distribution.
func BenchmarkTable3FacebookCluster(b *testing.B) {
	cfg := experiments.DefaultFacebook()
	report(b, "table3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFacebook(lrc.NewXorbas(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1FailureTrace regenerates Fig 1's month of node failures.
func BenchmarkFig1FailureTrace(b *testing.B) {
	report(b, "fig1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig1(nullWriter{}); err != nil {
			b.Fatal(err)
		}
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFig4FailureEvents regenerates Fig 4's per-event bars (200-file
// EC2 experiment, eight failure events) and Fig 5's time series.
func BenchmarkFig4FailureEvents(b *testing.B) {
	cfg := experiments.DefaultEC2(200)
	report(b, "fig4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEC2(lrc.NewXorbas(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5TimeSeries regenerates Fig 5: cluster network, disk and
// CPU series at 5-minute resolution over the failure sequence.
func BenchmarkFig5TimeSeries(b *testing.B) {
	cfg := experiments.DefaultEC2(200)
	report(b, "fig5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEC2(lrc.NewRS104(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Scatter regenerates Fig 6: metrics versus blocks lost
// across the 50/100/200-file experiments with least-squares fits.
func BenchmarkFig6Scatter(b *testing.B) {
	base := experiments.DefaultEC2(0)
	report(b, "fig6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(lrc.NewXorbas(), []int{50}, base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7WorkloadCompletion times the Fig 7 degraded WordCount run
// (the rows print under BenchmarkTable2RepairUnderWorkload).
func BenchmarkFig7WorkloadCompletion(b *testing.B) {
	cfg := experiments.DefaultWorkload()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWorkload(lrc.NewRS104(), true, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDrivenMonth replays a scaled Fig 1 failure trace for a
// simulated month against both coded clusters: the §1.1 standing-repair-
// traffic regime.
func BenchmarkTraceDrivenMonth(b *testing.B) {
	cfg := experiments.DefaultTraceDriven()
	once("trace", func() {
		for _, s := range []*lrc.Code{lrc.NewRS104(), lrc.NewXorbas()} {
			r, err := experiments.RunTraceDriven(s, cfg)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("Trace month %-16s: %3d node failures, %4d repairs (%d light/%d heavy), %.1f GB repair reads (%.2f GB/day), %d blocks lost\n",
				r.Scheme, r.NodesFailed, r.BlocksRepaired, r.LightRepairs, r.HeavyRepairs,
				r.RepairTrafficGB, r.AvgDailyRepairGB, r.DataLossBlocks)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTraceDriven(lrc.NewXorbas(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationImpliedParity compares the deployed implied-parity
// layout (16 blocks) against storing S3 explicitly (17 blocks): same
// locality, 0.6x vs 0.7x storage overhead.
func BenchmarkAblationImpliedParity(b *testing.B) {
	once("ab-implied", func() {
		implied := lrc.NewXorbas()
		p := lrc.Xorbas
		p.StoreImplied = true
		stored, err := lrc.New(p)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("Ablation: implied parity — stored=%d overhead=%.1fx locality=%d d=%d | explicit S3 — stored=%d overhead=%.1fx locality=%d d=%d\n",
			implied.NStored(), implied.StorageOverhead(), implied.Locality(), implied.MinDistance(),
			stored.NStored(), stored.StorageOverhead(), stored.Locality(), stored.MinDistance())
	})
	p := lrc.Xorbas
	p.StoreImplied = true
	data := make([][]byte, 10)
	for i := range data {
		data[i] = make([]byte, 1<<16)
	}
	c, err := lrc.New(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(10 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLightVsHeavy compares repair bytes with the light
// decoder enabled (normal Xorbas) against a heavy-only policy, on the
// same single-node failure.
func BenchmarkAblationLightVsHeavy(b *testing.B) {
	once("ab-light", func() {
		c := lrc.NewXorbas()
		exists := make([]bool, 16)
		avail := make([]bool, 16)
		for i := range exists {
			exists[i], avail[i] = true, true
		}
		avail[3] = false
		light, _ := c.PlanRepair(3, exists, avail, true)
		// Heavy-only: forbid the light recipe by pretending a groupmate
		// is down, then count a deployed heavy read set.
		avail[4] = false
		heavy, _ := c.PlanRepair(3, exists, avail, true)
		fmt.Printf("Ablation: light repair reads %d blocks; heavy-only reads %d (deployed)\n",
			len(light.Reads), len(heavy.Reads))
	})
	c := lrc.NewXorbas()
	exists := make([]bool, 16)
	avail := make([]bool, 16)
	for i := range exists {
		exists[i], avail[i] = true, true
	}
	avail[3] = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PlanRepair(3, exists, avail, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocalitySweep sweeps the group size r and reports the
// Theorem 2 distance bound and repair cost per r — the locality/distance
// tradeoff the paper characterizes.
func BenchmarkAblationLocalitySweep(b *testing.B) {
	once("ab-sweep", func() {
		fmt.Println("Ablation: locality sweep, k=10, 4 global parities")
		fmt.Printf("  %3s %8s %10s %10s %12s\n", "r", "stored", "overhead", "bound d", "exact d")
		for _, r := range []int{2, 3, 5, 10} {
			p := lrc.Params{K: 10, GlobalParities: 4, GroupSize: r}
			c, err := lrc.New(p)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("  %3d %8d %9.1fx %10d %12d\n",
				r, c.NStored(), c.StorageOverhead(), c.MinDistanceBound(), c.MinDistance())
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := lrc.New(lrc.Params{K: 10, GlobalParities: 4, GroupSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		_ = c.MinDistance()
	}
}

// BenchmarkAblationRSReadSet quantifies §3.1.2's remark that the deployed
// RS BlockFixer reads 13 blocks where 10 suffice.
func BenchmarkAblationRSReadSet(b *testing.B) {
	s := lrc.NewRS104()
	exists := make([]bool, 14)
	avail := make([]bool, 14)
	for i := range exists {
		exists[i], avail[i] = true, true
	}
	avail[0] = false
	once("ab-rs", func() {
		dep, _ := s.PlanRepair(0, exists, avail, true)
		min, _ := s.PlanRepair(0, exists, avail, false)
		fmt.Printf("Ablation: deployed RS repair reads %d blocks; minimal reads %d\n", len(dep.Reads), len(min.Reads))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PlanRepair(0, exists, avail, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationArchivalStripe evaluates §7's archival direction:
// large LRC stripes (k=50, r=5) keep repairs at r+… reads while the
// equivalent RS repair grows linearly with k.
func BenchmarkAblationArchivalStripe(b *testing.B) {
	once("ab-archival", func() {
		fmt.Println("Ablation: archival stripes (repair reads, single failure)")
		for _, k := range []int{10, 50, 100} {
			rsS, err := lrc.New(lrc.Params{K: k, GlobalParities: 4})
			if err != nil {
				b.Fatal(err)
			}
			lc, err := lrc.New(lrc.Params{K: k, GlobalParities: 4, GroupSize: 5})
			if err != nil {
				b.Fatal(err)
			}
			exists := mask(rsS.NStored(), true)
			avail := mask(rsS.NStored(), true)
			avail[1] = false
			rsPlan, err := rsS.PlanRepair(1, exists, avail, false)
			if err != nil {
				b.Fatal(err)
			}
			rsReads := rsPlan.Reads
			e2 := mask(lc.NStored(), true)
			a2 := mask(lc.NStored(), true)
			a2[1] = false
			plan, err := lc.PlanRepair(1, e2, a2, false)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("  k=%3d: RS reads %3d, LRC(r=5) reads %d (overheads %.2fx vs %.2fx)\n",
				k, len(rsReads), len(plan.Reads), rsS.StorageOverhead(), lc.StorageOverhead())
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrc.New(lrc.Params{K: 50, GlobalParities: 4, GroupSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func mask(n int, v bool) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = v
	}
	return m
}

// BenchmarkAblationPyramidVsLRC compares the paper's LRC against the §6
// predecessor family (pyramid codes): pyramid saves one block of storage
// but leaves its global parities without local repair, which shows up in
// overall locality and in the expected single-failure repair reads.
func BenchmarkAblationPyramidVsLRC(b *testing.B) {
	once("ab-pyramid", func() {
		xor := lrc.NewXorbas()
		pyr, err := lrc.NewPyramid(lrc.Xorbas)
		if err != nil {
			b.Fatal(err)
		}
		rsAvg := 13.0 // deployed single-failure reads
		fmt.Println("Ablation: LRC vs pyramid code vs RS on the (10,4) precode")
		fmt.Printf("  %-14s %8s %10s %9s %9s %12s %8s\n",
			"code", "stored", "overhead", "data-r", "full-r", "E[reads|1]", "d")
		for _, row := range []struct {
			name string
			c    *lrc.Code
		}{{"LRC(10,6,5)", xor}, {"pyramid(10,4)", pyr}} {
			avg := row.c.RepairStats(1, true).AvgReads
			fmt.Printf("  %-14s %8d %9.1fx %9d %9d %12.2f %8d\n",
				row.name, row.c.NStored(), row.c.StorageOverhead(),
				row.c.DataLocality(), row.c.Locality(), avg, row.c.MinDistance())
		}
		fmt.Printf("  %-14s %8d %9.1fx %9d %9d %12.2f %8d\n", "RS(10,4)", 14, 0.4, 10, 10, rsAvg, 5)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrc.NewPyramid(lrc.Xorbas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReliabilitySweep sweeps the cross-rack bandwidth γ
// and node MTTF in the Section 4 model: the LRC's reliability edge over
// RS grows as bandwidth shrinks — the paper's closing claim that LRCs
// matter most "when the network bandwidth is the main performance
// bottleneck".
func BenchmarkAblationReliabilitySweep(b *testing.B) {
	once("ab-rel", func() {
		fmt.Println("Ablation: MTTDL (days) vs cross-rack bandwidth and node MTTF")
		fmt.Printf("  %8s %6s | %12s %12s %12s %10s\n", "γ (Gb/s)", "MTTF y", "3-rep", "RS(10,4)", "LRC(10,6,5)", "LRC/RS")
		for _, gbps := range []float64{0.1, 1, 10} {
			for _, mttf := range []float64{2, 4} {
				p := markov.FacebookParams()
				p.BandwidthBitsPerSec = gbps * 1e9
				p.NodeMTTFYears = mttf
				rows, err := markov.Table1(p)
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("  %8.1f %6.0f | %12.3E %12.3E %12.3E %10.1f\n",
					gbps, mttf, rows[0].MTTDLDays, rows[1].MTTDLDays, rows[2].MTTDLDays,
					rows[2].MTTDLDays/rows[1].MTTDLDays)
			}
		}
	})
	b.ResetTimer()
	p := markov.FacebookParams()
	for i := 0; i < b.N; i++ {
		if _, err := markov.Table1(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The metadata plane (repro/internal/meta) ---

// BenchmarkMetaScan measures a snapshot-consistent prefix scan draining
// 16k entries — the scrubber's manifest walk, minus the block reads.
func BenchmarkMetaScan(b *testing.B) {
	db, err := meta.Open(meta.Options{})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 256)
	rand.New(rand.NewSource(6)).Read(val)
	const keys = 1 << 14
	for i := 0; i < keys; i++ {
		if err := db.Put(fmt.Sprintf("o/%08d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.Scan("o/")
		n := 0
		for {
			if _, _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if n != keys {
			b.Fatalf("scan saw %d of %d keys", n, keys)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(keys)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mkeys/s")
}

// --- The real datapath (repro/internal/store) ---

// storeCodecs are the two coded schemes on the byte-level store.
var storeCodecs = []struct {
	name  string
	codec func() store.Codec
}{
	{"rs10_4", func() store.Codec { return store.NewRS104Codec() }},
	{"xorbas10_6_5", func() store.Codec { return store.NewXorbasCodec() }},
}

// BenchmarkRebalance measures elastic membership's worst-case topology
// change: a node dies unannounced and is then decommissioned, so its
// whole drain runs as scheduled repair (§1.1) — every block rebuilt
// from stripe survivors, the path where the codec's repair locality
// decides the bill. After each drain a fresh node joins and the
// rebalancer fills it back to the mean, keeping the active set at full
// strength across iterations. MB/s is payload drained per second;
// read-blocks/moved shows the LRC rebuilding from its 5-block groups
// where RS(10,4) reads 10.
func BenchmarkRebalance(b *testing.B) {
	const size = 16 << 20
	for _, sc := range storeCodecs {
		b.Run(sc.name, func(b *testing.B) {
			s, err := store.New(store.Config{Codec: sc.codec(), BlockSize: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := s.PutReader(fmt.Sprintf("bench%d", i), pattern.NewReader(size)); err != nil {
					b.Fatal(err)
				}
			}
			rm := store.NewRepairManager(s, 2)
			rm.Start()
			defer rm.Stop()
			rb := store.NewRebalancer(s, rm, 0)
			victim := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.KillNode(victim)
				if err := s.Decommission(victim); err != nil {
					b.Fatal(err)
				}
				rb.RebalanceOnce() // enqueue the dead drain
				rm.Drain()
				rb.RebalanceOnce() // retire the emptied drainer
				joiner, err := s.AddNode("")
				if err != nil {
					b.Fatal(err)
				}
				rb.RebalanceOnce() // fill the joiner back to the mean
				if st := s.MemberState(victim); st != store.NodeDead {
					b.Fatalf("drain %d did not complete: %s", i, st)
				}
				victim = joiner
			}
			b.StopTimer()
			m := s.Metrics()
			moved := m.RebalancedBlocks + m.RepairedBlocks
			if moved == 0 {
				b.Fatal("rebalance moved no blocks")
			}
			movedBytes := m.RebalancedBytes + m.RepairedBytes
			b.SetBytes(movedBytes / int64(b.N))
			b.ReportMetric(float64(movedBytes)/1e6/b.Elapsed().Seconds(), "MB/s")
			// The dead drain is where codecs diverge: blocks read per
			// block rebuilt (joiner fills are plain copies, 1:1, and are
			// excluded so the decode bill stays visible).
			if m.RepairedBlocks > 0 {
				b.ReportMetric(float64(m.RepairBlocksRead)/float64(m.RepairedBlocks), "read-blocks/drained")
			}
			b.ReportMetric(float64(moved)/float64(b.N), "blocks-moved/op")
		})
	}
}

// BenchmarkHedgedGet measures the tail-latency story of hedged reads:
// one node of twenty answers 10ms late on every request (a straggler,
// not a corpse — the breaker never opens), and each sub-benchmark GETs
// the same 2-stripe object. Unhedged, every GET waits out the straggler
// once per stripe; hedged, the read fires the reconstruction race past
// the p90 latency and the decode beats the slow socket. p99-ms is the
// per-GET 99th percentile — the paper-adjacent "tail at scale" claim on
// this datapath.
func BenchmarkHedgedGet(b *testing.B) {
	const (
		nodes = 20
		stall = 10 * time.Millisecond
		size  = 2 * 10 * (64 << 10) // 2 full stripes
	)
	for _, mode := range []struct {
		name     string
		quantile float64
	}{
		{"unhedged", 0},
		{"hedged", 0.9},
	} {
		b.Run(mode.name, func(b *testing.B) {
			fb := store.NewFaultBackend(store.NewMemBackend(), nodes)
			s, err := store.New(store.Config{
				Backend:       fb,
				Nodes:         nodes,
				BlockSize:     64 << 10,
				HedgeQuantile: mode.quantile,
				HedgeMinDelay: 2 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.PutReader("bench", pattern.NewReader(size)); err != nil {
				b.Fatal(err)
			}
			// Slow exactly one node that holds a block of stripe 0, so
			// every GET meets the straggler.
			slow, _, err := s.BlockLocation("bench", 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			fb.SetFault(slow, store.Fault{Latency: stall})
			// Warm the latency histogram so the hedge quantile is real.
			for i := 0; i < 8; i++ {
				if _, err := s.GetWriter("bench", io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			lats := make([]time.Duration, 0, b.N)
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := s.GetWriter("bench", io.Discard); err != nil {
					b.Fatal(err)
				}
				lats = append(lats, time.Since(start))
			}
			b.StopTimer()
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p99 := lats[len(lats)*99/100]
			b.ReportMetric(float64(p99)/1e6, "p99-ms")
			m := s.Metrics()
			b.ReportMetric(float64(m.HedgeFires)/float64(b.N), "hedge-fires/op")
			b.ReportMetric(float64(m.HedgeWins)/float64(b.N), "hedge-wins/op")
		})
	}
}
