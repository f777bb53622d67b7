package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runSet is a set of repeated runs: what -repeat produces, -out writes
// and -compare reads.
type runSet struct {
	Trace int                 `json:"trace"`
	Runs  map[string][]report `json:"runs"` // by workload, in run order
}

// repeatRuns runs each selected workload n times, every run a fresh
// process of this same binary (as the driver launches them), round-robin
// over the workloads so slow drift of the machine spreads evenly.
func repeatRuns(o options, n int, stderr io.Writer) (*runSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	set := &runSet{Trace: o.trace, Runs: make(map[string][]report)}
	for i := 0; i < n; i++ {
		for _, name := range names {
			if findWorkload(name) == nil {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			seed := o.seed + int64(i)*o.seedStep
			cmd := exec.Command(exe,
				"-workload", name,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(o.trace),
				"-clients", strconv.Itoa(o.clients),
			)
			cmd.Stderr = stderr
			start := time.Now()
			out, err := cmd.Output() // waits for the child to exit
			if err != nil {
				return nil, fmt.Errorf("%s run %d (seed %d): %w", name, i+1, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return nil, fmt.Errorf("%s run %d: result line: %w", name, i+1, err)
			}
			fmt.Fprintf(stderr, "%s run %d/%d seed %d: correct=%v failed=%d, took %.1fs\n", name, i+1, n, seed, rep.Correct, rep.Failed, time.Since(start).Seconds())
			set.Runs[name] = append(set.Runs[name], rep)
		}
	}
	return set, nil
}

func (s *runSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// defs returns the metric list the set's runs reported.
func (s *runSet) defs() []metricDef {
	if s.Trace == 0 {
		return endToEnd
	}
	return perLayer
}

// values collects one metric over a workload's runs.
func (s *runSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs[workload] {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func (s *runSet) workloads() []string {
	var names []string
	for _, w := range workloadNames() {
		if len(s.Runs[w]) > 0 {
			names = append(names, w)
		}
	}
	return names
}

// summary is a metric's distribution over a set of runs.
type summary struct {
	n              int
	q1, median, q3 float64
}

// spread is the distance between the quartiles as a share of the median:
// how far two honest runs of the same code can differ.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the driver uses to judge the benchmark's steadiness.
func summarize(v []float64) summary {
	d := sortedCopy(v)
	m := len(d)
	s := summary{n: m}
	switch m {
	case 0:
		return s
	case 1:
		s.q1, s.median, s.q3 = d[0], d[0], d[0]
		return s
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	s.q1, s.median, s.q3 = cut(1), cut(2), cut(3)
	return s
}

func (s *runSet) print(w io.Writer) {
	for _, wl := range s.workloads() {
		failed := 0
		for _, r := range s.Runs[wl] {
			if !r.Correct {
				failed++
			}
		}
		fmt.Fprintf(w, "\n%s  runs=%d incorrect=%d\n", wl, len(s.Runs[wl]), failed)
		fmt.Fprintf(w, "  %-34s %12s %12s %12s %8s %3s  %s\n", "metric", "median", "q1", "q3", "spread", "n", "unit")
		for _, d := range s.defs() {
			sm := summarize(s.values(wl, d.Name))
			fmt.Fprintf(w, "  %-34s %12.4f %12.4f %12.4f %7.1f%% %3d  %s\n", d.Name, sm.median, sm.q1, sm.q3, 100*sm.spread(), sm.n, d.Unit)
		}
	}
}

// Verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved" // the runs' own spread is wider than the bound
)

// judge compares set b against set a on one end-to-end metric.
func judge(d metricDef, a, b summary) string {
	if a.n == 0 || b.n == 0 {
		return verdictUnresolved
	}
	if max(a.spread(), b.spread()) > d.Bound {
		return verdictUnresolved
	}
	change := div(b.median-a.median, a.median) // > 0: b is larger
	if d.Better == "lower" {
		change = -change
	}
	switch { // change > 0: b is better
	case change < -d.Bound:
		return verdictWorse
	case change > d.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// compareSets prints one row per (workload, metric) and returns how many
// end-to-end rows are not "within bound".
func compareSets(a, b *runSet, w io.Writer) int {
	disagree := 0
	for _, wl := range a.workloads() {
		fmt.Fprintf(w, "\n%s  runs: %d vs %d\n", wl, len(a.Runs[wl]), len(b.Runs[wl]))
		fmt.Fprintf(w, "  %-34s %12s %8s %12s %8s %8s %6s  %s\n", "metric", "a median", "a spread", "b median", "b spread", "change", "bound", "verdict")
		for _, d := range a.defs() {
			sa, sb := summarize(a.values(wl, d.Name)), summarize(b.values(wl, d.Name))
			verdict, bound := "-", "-"
			if d.Bound > 0 {
				verdict = judge(d, sa, sb)
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if verdict != verdictWithin {
					disagree++
				}
			}
			fmt.Fprintf(w, "  %-34s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %6s  %s\n",
				d.Name, sa.median, 100*sa.spread(), sb.median, 100*sb.spread(), 100*div(sb.median-sa.median, sa.median), bound, verdict)
		}
	}
	return disagree
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := readRunSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return fail(err)
	}
	if a.Trace != b.Trace {
		return fail(fmt.Errorf("%s holds -trace %d runs, %s -trace %d", pathA, a.Trace, pathB, b.Trace))
	}
	compareSets(a, b, stdout)
	return 0
}

// selfCheck runs two sets of three on the current tree and fails if any
// end-to-end metric on any workload is not within its bound between them:
// an instrument that disagrees with itself cannot gate a change.
func selfCheck(o options, stdout, stderr io.Writer) int {
	o.trace = 0
	var sets [2]*runSet
	for i := range sets {
		set, err := repeatRuns(o, 3, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n== set %d ==", i+1)
		set.print(stdout)
		sets[i] = set
	}
	fmt.Fprintf(stdout, "\n== set 2 against set 1 ==")
	if n := compareSets(sets[0], sets[1], stdout); n > 0 {
		fmt.Fprintf(stdout, "\nselfcheck: %d rows are not within bound\n", n)
		return 1
	}
	fmt.Fprintf(stdout, "\nselfcheck: every end-to-end metric agrees within its bound on every workload\n")
	return 0
}
