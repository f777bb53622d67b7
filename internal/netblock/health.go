package netblock

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/store"
)

// The client's per-node failure plane: a sliding window of operation
// outcomes and latencies feeding a circuit breaker. A node that keeps
// failing transport-level stops costing callers a dial timeout per
// operation — the breaker opens and operations fail in nanoseconds,
// which the store treats like any other block failure and reconstructs
// around (fail fast, then back off). After a jittered exponential
// cooldown the breaker goes half-open and one probe (the protocol's
// ping) decides whether the node is back.

// ErrBreakerOpen reports an operation refused locally because the
// node's circuit breaker is open — the node has failed enough
// consecutive transport attempts that dialing it again would only burn
// the caller's latency budget. It wraps store.ErrBlockNotFound for no
// one: callers distinguish it from remote answers with errors.Is.
var ErrBreakerOpen = errors.New("netblock: circuit breaker open")

// Breaker states, exported through NodeHealth snapshots as strings.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// healthWindow is a fixed-size ring of recent operation outcomes. It is
// not a stats.LatencyHist: that is cumulative, and the breaker needs
// "over the last 128 operations", not "since the process started".
const healthWindow = 128

// nodeHealth is one node's failure-plane state: outcome/latency window,
// consecutive-failure counter and breaker. Guarded by its own mutex so
// the hot path never contends with the connection pool's lock.
type nodeHealth struct {
	mu sync.Mutex

	// Ring of recent outcomes: ok[i] with latency lat[i] (µs), n total
	// recorded (capped at healthWindow for the rate math).
	ok   [healthWindow]bool
	lat  [healthWindow]int64
	head int
	n    int

	consecFails int
	state       int
	openUntil   time.Time
	openStreak  int // consecutive opens without a successful close, scales the cooldown
	opens       int64
	probing     bool // a half-open probe is in flight; only one at a time
	lastErr     string

	threshold int
	cooldown  time.Duration
	maxCool   time.Duration
}

func newNodeHealth(threshold int, cooldown, maxCool time.Duration) *nodeHealth {
	return &nodeHealth{threshold: threshold, cooldown: cooldown, maxCool: maxCool}
}

// record folds one operation outcome into the window and drives the
// breaker's state machine. A success in half-open closes the breaker; a
// failure re-opens it with a doubled (jittered) cooldown. The latency
// only means anything for successes; failures record their cost too so
// the window's quantiles reflect what callers actually waited.
func (h *nodeHealth) record(success bool, d time.Duration, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ok[h.head] = success
	h.lat[h.head] = d.Microseconds()
	h.head = (h.head + 1) % healthWindow
	if h.n < healthWindow {
		h.n++
	}
	if success {
		h.consecFails = 0
		if h.state != breakerClosed {
			h.state = breakerClosed
			h.openStreak = 0
		}
		h.probing = false
		h.lastErr = ""
		return
	}
	h.consecFails++
	if err != nil {
		h.lastErr = err.Error()
	}
	h.probing = false
	if h.threshold <= 0 {
		return // breaker disabled; window-only accounting
	}
	if h.state == breakerHalfOpen || (h.state == breakerClosed && h.consecFails >= h.threshold) {
		h.trip()
	}
}

// trip opens the breaker with an exponentially growing, jittered
// cooldown. Call with h.mu held.
func (h *nodeHealth) trip() {
	h.state = breakerOpen
	h.opens++
	h.openStreak++
	cool := h.cooldown << uint(h.openStreak-1)
	if cool > h.maxCool || cool <= 0 {
		cool = h.maxCool
	}
	h.openUntil = time.Now().Add(jitter(cool))
}

// allow gates one operation: closed admits, open fails fast, and an
// open breaker past its cooldown admits exactly one caller as the
// half-open probe (probe=true tells the caller to ping before the real
// op). The losing racers of the half-open transition keep failing fast
// until the probe resolves.
func (h *nodeHealth) allow() (probe bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerClosed:
		return false, nil
	case breakerHalfOpen:
		if h.probing {
			return false, fmt.Errorf("%w: probe in flight (last error: %s)", ErrBreakerOpen, h.lastErr)
		}
		h.probing = true
		return true, nil
	default: // open
		if time.Now().Before(h.openUntil) {
			return false, fmt.Errorf("%w: retry after %s (last error: %s)",
				ErrBreakerOpen, time.Until(h.openUntil).Round(time.Millisecond), h.lastErr)
		}
		h.state = breakerHalfOpen
		h.probing = true
		return true, nil
	}
}

// reset drops all health state — SetNode repointed the node at a new
// process, so the old process's failures are history.
func (h *nodeHealth) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n, h.head, h.consecFails = 0, 0, 0
	h.state = breakerClosed
	h.openStreak = 0
	h.probing = false
	h.lastErr = ""
}

// snapshot exports the node's health as the store-level record.
func (h *nodeHealth) snapshot() store.NodeHealthInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	info := store.NodeHealthInfo{
		State:       breakerStateName(h.state),
		ConsecFails: h.consecFails,
		Opens:       h.opens,
		LastErr:     h.lastErr,
	}
	if h.n == 0 {
		return info
	}
	fails := 0
	lats := make([]int64, 0, h.n)
	for i := 0; i < h.n; i++ {
		if !h.ok[i] {
			fails++
		}
		lats = append(lats, h.lat[i])
	}
	info.WindowOps = h.n
	info.WindowErrRate = float64(fails) / float64(h.n)
	// Nearest-rank quantiles over an insertion-sorted copy: the window
	// is 128 entries, so O(n²) never matters and no import is needed.
	for i := 1; i < len(lats); i++ {
		for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
			lats[j], lats[j-1] = lats[j-1], lats[j]
		}
	}
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return time.Duration(lats[i]) * time.Microsecond
	}
	info.P50 = rank(0.50)
	info.P99 = rank(0.99)
	return info
}

// jitter spreads d uniformly over [d/2, d): synchronized retries from
// many clients against one recovering node would otherwise stampede it
// back down.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
