package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json at the repository root
// carries the same list; smoke_test.go asserts the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the store sees. Every workload reports every
// one of them; what "operation" means per workload is in README.md:
//
//	ingest-large      PUT of one 32 MiB object
//	serve-cold-large  GET of one 16 MiB object
//	serve-hot-small   any request of the 80/10/10 mix
//	repair-node       goodput, ops and wire bytes are the repair of a
//	                  killed node's blocks; latency is the degraded GET
//
// Throughputs and latencies are those of the median slice of the window
// (ten slices; repair-node: the median kill), so one stall does not move
// them. Bound is the share of the parent's median by which the metric may
// get worse before a change counts as a regression. The timed metrics carry
// the widest bound the contract allows: on the shared two-core machine this
// was written on, whole runs slow by up to a fifth for half an hour at a time
// (README.md, "Steadiness"), and a bound inside the instrument's own noise
// gates nothing. The counts do not drift and keep tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_byte", "B/B", "lower", 0.05},
	{"stored_bytes_per_byte", "B/B", "lower", 0.01},
}

// perLayer metrics have no bound: they say where an end-to-end number
// comes from. The name's prefix is the layer (a module under internal/,
// or proc for the whole process). README.md lists, for each, the
// end-to-end metric and workload it is predicted to move.
var perLayer = []metricDef{
	// gf — ladder rungs on 1 MiB blocks.
	{Name: "gf.muladd_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "gf.xor_mbps", Unit: "MB/s", Better: "higher"},
	// lrc
	{Name: "lrc.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "lrc.light_repair_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "lrc.encode_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "lrc.reconstruct_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "lrc.light_repairs", Unit: "count", Better: "higher"},
	{Name: "lrc.heavy_repairs", Unit: "count", Better: "lower"},
	{Name: "lrc.repair_wire_vs_rs", Unit: "ratio", Better: "lower"},
	// rs — the baseline the paper compares against.
	{Name: "rs.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "rs.repair1_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "rs.reconstruct_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "rs.repair_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "rs.repair_wire_bytes_per_byte", Unit: "B/B", Better: "lower"},
	{Name: "rs.repair_blocks_read_per_block", Unit: "count", Better: "lower"},
	// store
	{Name: "store.frame_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.unframe_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.put_mem_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.get_mem_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.repair_mem_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.put_dir_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.put_net_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.get_net_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.repair_net_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.core_self_frac", Unit: "frac", Better: "lower"},
	{Name: "store.cache_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "store.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "store.cache_invalidations", Unit: "count", Better: "lower"},
	{Name: "store.read_bytes_per_byte", Unit: "B/B", Better: "lower"},
	{Name: "store.read_blocks_per_get", Unit: "count", Better: "lower"},
	{Name: "store.degraded_reads", Unit: "count", Better: "lower"},
	{Name: "store.hedge_fires", Unit: "count", Better: "lower"},
	{Name: "store.repair_blocks_read_per_block", Unit: "count", Better: "lower"},
	{Name: "store.repair_fetch_wait_frac", Unit: "frac", Better: "lower"},
	// meta
	{Name: "meta.commit_us", Unit: "us", Better: "lower"},
	{Name: "meta.get_ns", Unit: "ns", Better: "lower"},
	{Name: "meta.wal_bytes_per_put", Unit: "B", Better: "lower"},
	{Name: "meta.records_per_fsync", Unit: "count", Better: "higher"},
	// netblock
	{Name: "netblock.write_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "netblock.read_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "netblock.rtt_us", Unit: "us", Better: "lower"},
	{Name: "netblock.write_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "netblock.read_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "netblock.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "netblock.wire_bytes_per_byte", Unit: "B/B", Better: "lower"},
	{Name: "netblock.ops_per_req", Unit: "count", Better: "lower"},
	{Name: "netblock.breaker_opens", Unit: "count", Better: "lower"},
	// gateway
	{Name: "gateway.put_mbps_1c", Unit: "MB/s", Better: "higher"},
	{Name: "gateway.get_mbps_1c", Unit: "MB/s", Better: "higher"},
	{Name: "gateway.head_us", Unit: "us", Better: "lower"},
	{Name: "gateway.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "gateway.rejected", Unit: "count", Better: "lower"},
	{Name: "gateway.get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.get_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.put_p99_ms", Unit: "ms", Better: "lower"},
	// proc — the whole process, load generator included.
	{Name: "proc.cpu_s_per_gb", Unit: "s/GB", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.alloc_mb_per_gb", Unit: "MB/GB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.rss_growth_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints: the contract the driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from values, refusing a missing
// or non-finite number: a benchmark that silently drops a metric cannot
// gate anything.
func fillMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// div is a/b, 0 when nothing was counted in the denominator: a ratio of
// counts over a window in which the counted thing did not happen.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
