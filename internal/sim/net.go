package sim

import (
	"fmt"
	"math"
)

// Net is a fluid network: concurrent flows share link capacity max-min
// fairly, recomputed whenever the flow set changes. Each node has an
// egress and an ingress link and nothing else constrains a flow: §5's
// clusters are one rack.
type Net struct {
	eng        *Engine
	nodes      int
	outBps     []float64
	inBps      []float64
	flows      []*Flow // insertion-ordered so callbacks fire deterministically
	timerGen   int64
	lastUpdate float64 // engine time of the last progress accounting

	// OnProgress, if set, is invoked on every rate recomputation with the
	// bytes each flow moved since the previous recomputation — the hook
	// the metrics layer uses to build 5-minute-resolution time series.
	OnProgress func(f *Flow, bytes float64)
}

// Flow is an in-flight transfer.
type Flow struct {
	From, To int
	// Tag is free-form metadata for metrics attribution (e.g. "repair-read").
	Tag string

	remaining float64
	rate      float64
	done      func(f *Flow)
}

// NewNet creates a network of n nodes with uniform egress/ingress
// capacities (bytes per second).
func NewNet(eng *Engine, n int, outBps, inBps float64) *Net {
	net := &Net{
		eng:    eng,
		nodes:  n,
		outBps: make([]float64, n),
		inBps:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		net.outBps[i] = outBps
		net.inBps[i] = inBps
	}
	return net
}

// SetNodeCapacity overrides one node's egress/ingress capacity, e.g. to
// fold its disk read bandwidth into egress.
func (n *Net) SetNodeCapacity(node int, outBps, inBps float64) {
	n.outBps[node] = outBps
	n.inBps[node] = inBps
}

// Active returns the number of in-flight flows.
func (n *Net) Active() int { return len(n.flows) }

// StartFlow begins a transfer of the given bytes and calls done (if
// non-nil) on completion. Zero-byte flows complete immediately (next
// event). from == to models a local copy and also completes immediately:
// local I/O is not the bottleneck the paper measures.
func (n *Net) StartFlow(from, to int, bytes float64, tag string, done func(f *Flow)) *Flow {
	if from < 0 || from >= n.nodes || to < 0 || to >= n.nodes {
		panic(fmt.Sprintf("sim: flow endpoints %d→%d out of range", from, to))
	}
	f := &Flow{From: from, To: to, Tag: tag, remaining: bytes, done: done}
	if bytes <= 0 || from == to {
		f.remaining = 0
		n.eng.Schedule(0, func() {
			if f.done != nil {
				f.done(f)
			}
		})
		return f
	}
	n.advance()
	n.flows = append(n.flows, f)
	n.recompute()
	return f
}

// completionEps is the residual byte count below which a flow counts as
// finished. Block transfers are tens of megabytes, so one byte of slack
// is invisible in every metric; crucially it must exceed the byte
// resolution of the clock (rate·ulp(now)), or a flow whose completion
// time rounds back onto the current timestamp would respawn its timer
// forever at dt = 0.
const completionEps = 1.0

// advance applies the current rates over the elapsed interval, completing
// any flows that ran dry. Progress is accounted centrally against the
// Net's lastUpdate stamp: rates only change at recomputation points, so
// every flow moved rate·dt bytes since then. Sub-epsilon residues finish
// even at dt = 0 — see completionEps.
func (n *Net) advance() {
	now := n.eng.Now()
	var finished []*Flow
	dt := now - n.lastUpdate
	for _, f := range n.flows {
		if dt > 0 {
			moved := f.rate * dt
			if moved >= f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			if n.OnProgress != nil && moved > 0 {
				n.OnProgress(f, moved)
			}
		}
		if f.remaining <= completionEps {
			if n.OnProgress != nil && f.remaining > 0 {
				n.OnProgress(f, f.remaining)
			}
			f.remaining = 0
			finished = append(finished, f)
		}
	}
	n.lastUpdate = now
	if len(finished) > 0 {
		keep := n.flows[:0]
		fin := make(map[*Flow]bool, len(finished))
		for _, f := range finished {
			fin[f] = true
		}
		for _, f := range n.flows {
			if !fin[f] {
				keep = append(keep, f)
			}
		}
		n.flows = keep
	}
	for _, f := range finished {
		if f.done != nil {
			f.done(f)
		}
	}
}

// recompute runs max-min waterfilling across all links and schedules the
// next completion.
func (n *Net) recompute() {
	if len(n.flows) == 0 {
		return
	}
	// Residual capacities.
	outCap := append([]float64(nil), n.outBps...)
	inCap := append([]float64(nil), n.inBps...)
	outFlows := make([]int, n.nodes)
	inFlows := make([]int, n.nodes)
	unfrozen := make([]*Flow, len(n.flows))
	copy(unfrozen, n.flows)
	for _, f := range n.flows {
		outFlows[f.From]++
		inFlows[f.To]++
	}
	for len(unfrozen) > 0 {
		// Find the bottleneck link: the smallest fair share.
		share := math.Inf(1)
		for i := 0; i < n.nodes; i++ {
			if outFlows[i] > 0 {
				if s := outCap[i] / float64(outFlows[i]); s < share {
					share = s
				}
			}
			if inFlows[i] > 0 {
				if s := inCap[i] / float64(inFlows[i]); s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) {
			// No constraining links: unlimited (shouldn't happen with
			// finite node capacities); give a huge rate.
			share = 1e18
		}
		// Freeze every unfrozen flow traversing a link at exactly this
		// share (the bottleneck links), then subtract.
		progressed := false
		remaining := unfrozen[:0]
		for _, f := range unfrozen {
			bottleneck := false
			if outFlows[f.From] > 0 && outCap[f.From]/float64(outFlows[f.From]) <= share*(1+1e-12) {
				bottleneck = true
			}
			if inFlows[f.To] > 0 && inCap[f.To]/float64(inFlows[f.To]) <= share*(1+1e-12) {
				bottleneck = true
			}
			if !bottleneck {
				remaining = append(remaining, f)
				continue
			}
			f.rate = share
			outCap[f.From] -= share
			inCap[f.To] -= share
			outFlows[f.From]--
			inFlows[f.To]--
			progressed = true
		}
		unfrozen = remaining
		if !progressed {
			// Defensive: numerical corner; assign the share to everything.
			for _, f := range unfrozen {
				f.rate = share
			}
			unfrozen = unfrozen[:0]
		}
	}
	n.scheduleNextCompletion()
}

// scheduleNextCompletion arms a timer for the earliest flow completion.
func (n *Net) scheduleNextCompletion() {
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	// Clamp to a microsecond so the timer always lands on a strictly later
	// representable timestamp even when the clock is large (belt to
	// completionEps's suspenders).
	if next < 1e-6 {
		next = 1e-6
	}
	n.timerGen++
	gen := n.timerGen
	n.eng.Schedule(next, func() {
		if gen != n.timerGen {
			return // superseded by a later recomputation
		}
		n.advance()
		n.recompute()
	})
}
