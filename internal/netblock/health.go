package netblock

import (
	"sync"
	"time"

	"repro/internal/store"
)

// The client's per-node outcome window: recent operation outcomes and
// latencies, exported through NodeHealth for observability (/healthz,
// xorbasctl node ping). The window decides nothing. Whether a node is
// down is the store's membership record, written by its HealthMonitor
// from CheckNode probes or by the operator; the store sends no traffic
// to a node it has marked dead.

// healthWindow is a fixed-size ring of recent operation outcomes. It is
// not a stats.LatencyHist: that is cumulative, and the window reports
// "over the last 128 operations", not "since the process started".
const healthWindow = 128

// nodeHealth is one node's outcome window and consecutive-failure
// counter. Guarded by its own mutex so the hot path never contends with
// the connection pool's lock.
type nodeHealth struct {
	mu sync.Mutex

	// Ring of recent outcomes: ok[i] with latency lat[i] (µs), n total
	// recorded (capped at healthWindow for the rate math).
	ok   [healthWindow]bool
	lat  [healthWindow]int64
	head int
	n    int

	consecFails int
	lastErr     string
}

// record folds one attempt's outcome into the window. d is what the
// attempt cost its caller, dial included, so a failure records its cost
// too and the window's quantiles reflect what callers actually waited.
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
		h.lastErr = ""
		return
	}
	h.consecFails++
	if err != nil {
		h.lastErr = err.Error()
	}
}

// reset drops all health state — SetNode repointed the node at a new
// process, so the old process's failures are history.
func (h *nodeHealth) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n, h.head, h.consecFails = 0, 0, 0
	h.lastErr = ""
}

// snapshot exports the node's health as the store-level record.
func (h *nodeHealth) snapshot() store.NodeHealthInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	info := store.NodeHealthInfo{
		ConsecFails: h.consecFails,
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
