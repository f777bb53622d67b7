package main

import (
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// procSnap is the whole-process cost counters at one instant.
type procSnap struct {
	cpu        time.Duration // rusage user + system
	allocBytes uint64        // runtime.MemStats.TotalAlloc
	gcPause    time.Duration // runtime.MemStats.PauseTotalNs
}

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	var s procSnap
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc
	s.gcPause = time.Duration(ms.PauseTotalNs)
	return s
}

// procDelta is what a measured window cost the process.
type procDelta struct {
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
	peakRSS    int64 // bytes, highest sample inside the window
	rssGrowth  int64 // bytes, last sample − first sample
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() (int64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * int64(os.Getpagesize()), true
}

// windowCost is what the program's own counters and the process counters
// say a measured window did.
type windowCost struct {
	st       store.Metrics // delta over the window
	rejected int64         // gateway admission rejections, delta
	proc     procDelta
}

// measureWindow runs fn between two snapshots of the stack's counters
// and the process's, sampling resident memory while it runs. settle is
// called before each snapshot, so that both are taken with no request in
// flight on either side of the HTTP connection.
func measureWindow(stk *stack, settle func(), fn func()) windowCost {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var first, last, peak int64
	var sampled bool
	sample := func() {
		if v, ok := rssBytes(); ok {
			if !sampled {
				first, sampled = v, true
			}
			last = v
			peak = max(peak, v)
		}
	}
	sample()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	settle()
	st0, gw0, p0 := stk.st.Metrics(), stk.gw.Metrics(), takeProcSnap()
	fn()
	p1 := takeProcSnap()
	settle()
	gw1, st1 := stk.gw.Metrics(), stk.st.Metrics()
	close(stop)
	wg.Wait()
	sample()
	return windowCost{
		st:       subMetrics(st1, st0),
		rejected: gw1.AdmissionRejected - gw0.AdmissionRejected,
		proc: procDelta{
			cpu:        p1.cpu - p0.cpu,
			allocBytes: p1.allocBytes - p0.allocBytes,
			gcPause:    p1.gcPause - p0.gcPause,
			peakRSS:    peak,
			rssGrowth:  last - first,
		},
	}
}

// combineMetrics returns a + sign·b, field by field (every field of
// store.Metrics is an int64 counter).
func combineMetrics(a, b store.Metrics, sign int64) store.Metrics {
	d := a
	dv := reflect.ValueOf(&d).Elem()
	bv := reflect.ValueOf(b)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() + sign*bv.Field(i).Int())
	}
	return d
}

func subMetrics(after, before store.Metrics) store.Metrics { return combineMetrics(after, before, -1) }
func addMetrics(a, b store.Metrics) store.Metrics          { return combineMetrics(a, b, +1) }
