// Command bench is the repository's benchmark: it boots the real serving
// stack in one process over loopback sockets — net/http server → gateway
// → store (metadata plane on disk) → netblock client → 16 netblock
// servers over memory backends — drives it with seeded closed-loop HTTP
// clients, verifies every response byte for byte, and prints every metric
// by name and unit. README.md in this directory says what each workload
// and metric is for.
//
//	go run ./bench                               # four workloads, end-to-end metrics
//	go run ./bench -trace 1                      # per-layer metrics, span files, layer ladder
//	go run ./bench -workload repair-node -seed 7 -seconds 20
//	go run ./bench -repeat 5 -out a.json         # five fresh processes per workload
//	go run ./bench -compare a.json b.json
//	go run ./bench -selfcheck
//
// The last line of standard output is one JSON object (BENCHMARK.json at
// the repository root describes the contract).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	clients  int
	repeat   int
	seedStep int64
	out      string
	compare  bool
	self     bool
}

// What a run does besides its measured window. These are constants, not
// flags: two runs compare only if they agree on them.
const (
	warmup = 2 * time.Second // unmeasured, before the window
	setups = 5               // times set-up is repeated; setup_s is the median
)

// spanDir is where traced runs write their span files.
var spanDir = filepath.Join("bench", "out")

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for key choice, sizes, offsets, victim order and object bytes")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters, a traced window and the layer ladder")
	fs.IntVar(&o.clients, "clients", 2, "closed-loop clients, one keep-alive connection each")
	fs.IntVar(&o.repeat, "repeat", 0, "run each workload this many times, each in a fresh process, and print median and quartiles")
	fs.Int64Var(&o.seedStep, "seedstep", 0, "with -repeat: add this to the seed on every run (0 = same inputs every run)")
	fs.StringVar(&o.out, "out", "", "with -repeat: also write the runs to this JSON file, for -compare")
	fs.BoolVar(&o.compare, "compare", false, "compare two -repeat files: bench -compare a.json b.json")
	fs.BoolVar(&o.self, "selfcheck", false, "run two sets of three runs on this tree and fail if they disagree on an end-to-end metric")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare wants two files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.self:
		return selfCheck(o, stdout, stderr)
	case o.repeat > 0:
		set, err := repeatRuns(o, o.repeat, stderr)
		if err != nil {
			return fail(err)
		}
		set.print(stdout)
		if o.out != "" {
			if err := set.write(o.out); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	// The load generator shares the machine with the server; beyond four
	// threads it would only be measuring the scheduler.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	reports := make(map[string]*report)
	code := 0
	var last *report
	for _, name := range names {
		wl := findWorkload(name)
		if wl == nil {
			return fail(fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames(), ", ")))
		}
		tmpRoot, err := makeTmpRoot()
		if err != nil {
			return fail(err)
		}
		rep, err := runWorkload(newEnv(o, tmpRoot, stdout), wl, o.trace)
		if rmErr := os.RemoveAll(tmpRoot); err == nil {
			err = rmErr
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		if !rep.Correct {
			code = 1
		}
		reports[name], last = rep, rep
	}
	// One workload: the contract's result line. All of them: one object
	// keyed by workload.
	var line []byte
	if len(names) == 1 {
		line, _ = json.Marshal(last)
	} else {
		line, _ = json.Marshal(reports)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// newEnv is the run's settings as the flags give them.
func newEnv(o options, tmpRoot string, log io.Writer) *env {
	return &env{
		seed:    o.seed,
		clients: o.clients,
		warmup:  warmup,
		window:  time.Duration(o.seconds * float64(time.Second)),
		setups:  setups,
		tmpRoot: tmpRoot,
		outDir:  spanDir,
		sz:      fullSizes,
		log:     log,
	}
}

// runWorkload runs one workload once and prints its metrics as a table.
// trace 0 spends e.window measuring the end-to-end metrics. trace 1
// spends the same time on the per-layer metrics: a quarter untraced (the
// counters, and the base of the tracing overhead), a quarter traced, half
// on the layer ladder.
func runWorkload(e *env, wl *workloadDef, trace int) (*report, error) {
	if trace == 0 {
		m, err := wl.run(e)
		if err != nil {
			return nil, err
		}
		return e.report(wl.name, endToEnd, m.endToEndValues(), m)
	}
	sub := *e
	sub.window = e.window / 4
	sub.setups = 1 // setup_s is not a per-layer metric
	plain, err := wl.run(&sub)
	if err != nil {
		return nil, err
	}
	sub.traced = true
	traced, err := wl.run(&sub)
	if err != nil {
		return nil, err
	}
	rungs, err := runLadder(e, e.window/2)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	rungs.print(e.log)
	plain.attempted += traced.attempted
	plain.failed += traced.failed
	plain.violations = append(plain.violations, traced.violations...)
	if plain.err == nil {
		plain.err = traced.err
	}
	return e.report(wl.name, perLayer, perLayerValues(plain, traced, rungs), plain)
}

// makeTmpRoot makes the directory the run's metadata planes and DirBackend
// rungs live in — inside the working directory, which is the checkout:
// the benchmark writes nowhere else.
func makeTmpRoot() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// endToEndValues derives the user-visible metrics.
func (m *measurement) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":               m.setupS,
		"goodput_mbps":          m.goodputMBps,
		"ops_per_s":             m.opsPerS,
		"op_p50_ms":             m.opP50Ms,
		"op_p95_ms":             m.opP95Ms,
		"wire_bytes_per_byte":   m.wirePerByte,
		"stored_bytes_per_byte": m.storedPerByte,
	}
}

// report prints the metrics and assembles the result line's object.
func (e *env) report(workload string, defs []metricDef, values map[string]float64, m *measurement) (*report, error) {
	metrics, err := fillMetrics(defs, values)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   m.failed == 0 && len(m.violations) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	}
	e.logf("\n%s  seed=%d clients=%d window=%.1fs  attempted=%d failed=%d latency n=%d\n",
		workload, e.seed, e.clients, m.window.Seconds(), m.attempted, m.failed, m.latN)
	for _, d := range defs {
		e.logf("  %-34s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	p := m.cost.proc
	e.logf("  process over the window: cpu %.1f s, gc pause %.1f ms, rss peak %.0f MB, rss growth %+.0f MB\n",
		p.cpu.Seconds(), float64(p.gcPause)/1e6, float64(p.peakRSS)/1e6, float64(p.rssGrowth)/1e6)
	if m.err != nil {
		e.logf("  first failure: %v\n", m.err)
	}
	for _, v := range m.violations {
		e.logf("  VIOLATION: %s\n", v)
	}
	return rep, nil
}
