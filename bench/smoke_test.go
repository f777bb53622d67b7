package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// testSizes shrinks every workload to a fraction of a second while
// keeping its shape: whole and short stripes on ingest, a cold set three
// times the cache, a hot set inside it, whole-stripe repair objects.
var testSizes = sizes{
	largeBlock: 16 << 10,
	smallBlock: 4 << 10,
	cacheBytes: 1 << 20,

	ingestObject: 512 << 10, ingestRing: 2,

	coldObjects: 12, coldObject: 256 << 10,

	hotReadObjects: 32, hotReadObject: 16 << 10,
	hotWriteObjects: 32, hotWriteObject: 4 << 10,
	hotRangeMin: 256, hotRangeMax: 4 << 10,

	repairObjects: 4, repairObject: 320 << 10,
	repairGets: 4,

	ladderBytes: 1 << 20,
}

func testEnv(t *testing.T, log io.Writer) *env {
	t.Helper()
	dir := t.TempDir()
	return &env{
		seed:    1,
		clients: 2,
		warmup:  50 * time.Millisecond,
		window:  300 * time.Millisecond,
		setups:  2,
		tmpRoot: dir,
		outDir:  dir,
		sz:      testSizes,
		log:     log,
	}
}

// TestSmoke runs all four workloads untraced and traced, with the ladder,
// and checks that every metric BENCHMARK.json names comes out with its
// unit and that nothing failed.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var log bytes.Buffer
			e := testEnv(t, &log)
			if trace == 1 {
				e.window = 800 * time.Millisecond // 200 ms per window, 13 ms per rung
			}
			rep, err := runWorkload(e, findWorkload(wl.name), trace)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", wl.name, trace, err, log.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", wl.name, trace, rep.Correct, rep.Attempted, rep.Failed, log.String())
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := rep.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", wl.name, trace, d.Name, got, d.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, d.Name, got.Value)
				}
			}
		}
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// TestBenchmarkFile holds BENCHMARK.json to the lists in this package.
func TestBenchmarkFile(t *testing.T) {
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if f.EndToEnd[0].Name != "setup_s" || f.EndToEnd[0].Bound != 0.25 {
		t.Errorf("setup_s must come first with the largest bound, got %+v", f.EndToEnd[0])
	}
}

// TestMissingMetricIsAnError: a run that drops or mangles a metric must
// not produce a result line.
func TestMissingMetricIsAnError(t *testing.T) {
	vals := (&measurement{setupS: 1, goodputMBps: 1, opsPerS: 1, opP50Ms: 1, opP95Ms: 1, wirePerByte: 1, storedPerByte: 1}).endToEndValues()
	if _, err := fillMetrics(endToEnd, vals); err != nil {
		t.Fatalf("complete values refused: %v", err)
	}
	delete(vals, "ops_per_s")
	if _, err := fillMetrics(endToEnd, vals); err == nil {
		t.Error("a missing metric was accepted")
	}
	vals["ops_per_s"] = median(nil) // no samples: NaN
	if _, err := fillMetrics(endToEnd, vals); err == nil {
		t.Error("a NaN metric was accepted")
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// [3.5, 13.5, 31.0]
	s := summarize([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.q1 != 3.5 || s.median != 13.5 || s.q3 != 31 {
		t.Errorf("got %v %v %v, want 3.5 13.5 31", s.q1, s.median, s.q3)
	}
	// >>> statistics.quantiles([3, 1, 2], n=4)
	// [1.0, 2.0, 3.0]
	s = summarize([]float64{3, 1, 2})
	if s.q1 != 1 || s.median != 2 || s.q3 != 3 {
		t.Errorf("got %v %v %v, want 1 2 3", s.q1, s.median, s.q3)
	}
}

// TestJudge covers the four verdicts of a comparison row.
func TestJudge(t *testing.T) {
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "y", Better: "lower", Bound: 0.10}
	tight := func(m float64) summary { return summary{n: 5, q1: m * 0.99, median: m, q3: m * 1.01} }
	wide := summary{n: 5, q1: 80, median: 100, q3: 120}
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{higher, tight(100), tight(105), verdictWithin},
		{higher, tight(100), tight(120), verdictBetter},
		{higher, tight(100), tight(85), verdictWorse},
		{lower, tight(100), tight(120), verdictWorse},
		{lower, tight(100), tight(85), verdictBetter},
		{higher, wide, tight(100), verdictUnresolved},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v→%v) = %s, want %s", c.d.Better, c.a.median, c.b.median, got, c.want)
		}
	}
}
