package sim

import (
	"math"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(5, func() { order = append(order, 3) }) // same time: FIFO
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 5 {
		t.Fatalf("now %f", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []float64
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(2, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits %v", hits)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(10, func() { fired++ })
	e.RunUntil(5)
	if fired != 1 || e.Now() != 5 || e.Pending() != 1 {
		t.Fatalf("fired=%d now=%f pending=%d", fired, e.Now(), e.Pending())
	}
	e.Run()
	if fired != 2 || e.Now() != 10 {
		t.Fatal("remaining event did not run")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(2, func() {
		e.Schedule(-5, func() {
			if e.Now() != 2 {
				t.Errorf("negative delay ran at %f", e.Now())
			}
		})
	})
	e.Run()
}

// A single flow on an idle network runs at min(egress, ingress).
func TestSingleFlowRate(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 2, 100, 80) // ingress 80 is the bottleneck
	var doneAt float64
	n.StartFlow(0, 1, 800, "t", func(*Flow) { doneAt = e.Now() })
	e.Run()
	if math.Abs(doneAt-10) > 1e-6 {
		t.Fatalf("800 bytes at 80 B/s should take 10 s, took %f", doneAt)
	}
}

// Two flows from one source share its egress equally.
func TestEgressSharing(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 3, 100, 1000)
	var t1, t2 float64
	n.StartFlow(0, 1, 500, "a", func(*Flow) { t1 = e.Now() })
	n.StartFlow(0, 2, 500, "b", func(*Flow) { t2 = e.Now() })
	e.Run()
	// Each gets 50 B/s → 10 s.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Fatalf("t1=%f t2=%f want 10", t1, t2)
	}
}

// When one flow finishes, the survivor picks up the freed capacity.
func TestRateReallocation(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 3, 100, 1000)
	var tShort, tLong float64
	n.StartFlow(0, 1, 250, "short", func(*Flow) { tShort = e.Now() })
	n.StartFlow(0, 2, 750, "long", func(*Flow) { tLong = e.Now() })
	e.Run()
	// Shared at 50 B/s until short finishes at t=5; long then has 500
	// left at 100 B/s → finishes at t=10.
	if math.Abs(tShort-5) > 1e-6 {
		t.Fatalf("tShort=%f want 5", tShort)
	}
	if math.Abs(tLong-10) > 1e-6 {
		t.Fatalf("tLong=%f want 10", tLong)
	}
}

// Max-min fairness: a flow constrained to 10 by its ingress leaves the
// rest of the shared egress to the other flow.
func TestMaxMinWaterfilling(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 3, 100, 1000)
	n.SetNodeCapacity(1, 1000, 10) // node 1 ingress tiny
	var tSlow, tFast float64
	n.StartFlow(0, 1, 100, "slow", func(*Flow) { tSlow = e.Now() })
	n.StartFlow(0, 2, 900, "fast", func(*Flow) { tFast = e.Now() })
	e.Run()
	// slow: 10 B/s → 10 s. fast: 90 B/s → 10 s.
	if math.Abs(tSlow-10) > 1e-6 || math.Abs(tFast-10) > 1e-6 {
		t.Fatalf("tSlow=%f tFast=%f want 10,10", tSlow, tFast)
	}
}

// Local (same-node) and zero-byte flows complete immediately.
func TestDegenerateFlows(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 2, 100, 100)
	done := 0
	n.StartFlow(0, 0, 1e9, "local", func(*Flow) { done++ })
	n.StartFlow(0, 1, 0, "empty", func(*Flow) { done++ })
	e.Run()
	if done != 2 {
		t.Fatalf("done=%d", done)
	}
	if e.Now() != 0 {
		t.Fatalf("degenerate flows advanced time to %f", e.Now())
	}
}

// Progress callbacks account every byte exactly once.
func TestOnProgressConservation(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 3, 100, 100)
	var accounted float64
	n.OnProgress = func(f *Flow, b float64) { accounted += b }
	n.StartFlow(0, 1, 300, "a", nil)
	n.StartFlow(0, 2, 500, "b", nil)
	n.StartFlow(1, 2, 200, "c", nil)
	e.Run()
	if math.Abs(accounted-1000) > 1e-3 {
		t.Fatalf("accounted %f want 1000", accounted)
	}
	if n.Active() != 0 {
		t.Fatal("flows leaked")
	}
}

// Chained flows via done callbacks (the repair pattern: read then write).
func TestChainedFlows(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 3, 100, 100)
	var finished float64
	n.StartFlow(0, 1, 1000, "read", func(*Flow) {
		n.StartFlow(1, 2, 1000, "write", func(*Flow) { finished = e.Now() })
	})
	e.Run()
	if math.Abs(finished-20) > 1e-6 {
		t.Fatalf("finished=%f want 20", finished)
	}
}

// Determinism: identical runs produce identical completion times.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		n := NewNet(e, 5, 123, 77)
		var times []float64
		for i := 0; i < 20; i++ {
			from := i % 4
			to := (i + 1) % 5
			if from == to {
				from = (from + 1) % 5
			}
			n.StartFlow(from, to, float64(100+i*37), "t", func(*Flow) {
				times = append(times, e.Now())
			})
		}
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %f vs %f", i, a[i], b[i])
		}
	}
}

func TestStartFlowPanicsOnBadEndpoint(t *testing.T) {
	e := NewEngine()
	n := NewNet(e, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.StartFlow(0, 5, 10, "bad", nil)
}

func BenchmarkThousandFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := NewNet(e, 50, 1e8, 1e8)
		for j := 0; j < 1000; j++ {
			n.StartFlow(j%50, (j+7)%50, 64<<20, "x", nil)
		}
		e.Run()
	}
}
