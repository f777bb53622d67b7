package store

import (
	"sync"
	"time"
)

// The auto-liveness half of the failure plane. The paper's clusters
// learn of dead DataNodes from missed heartbeats and repair without an
// operator; here the HealthMonitor plays the NameNode's heartbeat
// ledger: it probes every node through the backend's health interface,
// flips the liveness bit of the node's plane-durable membership record
// after failThreshold consecutive failures (with hysteresis so a
// flapping node doesn't thrash repair), enqueues prioritized repair on
// confirmed death, and re-marks alive + re-checks the revived node's
// blocks on revival.

// The detector's streak thresholds. A node is confirmed down, and its
// stripes enqueued for repair, failThreshold probe rounds after it stops
// answering — failThreshold × MonitorConfig.Interval, 3 s at a 1 s
// interval: §1.1's wait before a transient failure is treated as a
// loss. It is revived after reviveThreshold answered rounds, so a
// half-up node does not bounce between repair and service.
const (
	failThreshold   = 3
	reviveThreshold = 2
)

// NodeHealthInfo is one node's failure-plane snapshot: liveness as the
// store records it, plus whatever windowed transport accounting the
// backend keeps (error rate, latency quantiles). A non-tracking backend
// leaves everything but Node and Alive zero. Only Alive says whether
// the node is down; the rest is evidence for an operator.
type NodeHealthInfo struct {
	Node        int
	Alive       bool
	ConsecFails int
	LastErr     string
	// Windowed accounting over the backend's recent operations.
	WindowOps     int
	WindowErrRate float64
	P50, P99      time.Duration
}

// HealthChecker is an optional Backend extension (like WireStats): one
// active liveness probe against a node. A nil error means the node
// answered; any error is a miss. A probe is one attempt: the
// HealthMonitor's streaks are the only retry policy, so an
// implementation that retried or failed fast from state of its own
// would put a second failure detector in front of the first.
type HealthChecker interface {
	CheckNode(node int) error
}

// HealthStats is an optional Backend extension: per-node outcome-window
// snapshots for observability (the gateway's /healthz, xorbasctl
// node ping).
type HealthStats interface {
	NodeHealth() []NodeHealthInfo
}

// NodeHealth reports every node's failure-plane state: the backend's
// window snapshot when it keeps one (HealthStats), overlaid with the
// liveness in the store's own membership records.
func (s *Store) NodeHealth() []NodeHealthInfo {
	members := s.Members()
	infos := make([]NodeHealthInfo, len(members))
	if hs, ok := s.cfg.Backend.(HealthStats); ok {
		for i, info := range hs.NodeHealth() {
			if i < len(infos) {
				infos[i] = info
			}
		}
	}
	for i := range infos {
		infos[i].Node = i
		infos[i].Alive = members[i].Alive
	}
	return infos
}

// LiveNodes counts nodes currently marked alive.
func (s *Store) LiveNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	live := 0
	for _, m := range s.members {
		if !m.Down {
			live++
		}
	}
	return live
}

// WriteDegraded reports whether the store has too few placeable nodes —
// alive AND in the active/joining membership set — to place a full
// stripe: writes would fail mid-stripe, so the gateway sheds them
// (503 + Retry-After) while reads keep serving degraded. Draining and
// dead members don't count even when their processes answer probes.
func (s *Store) WriteDegraded() bool {
	return s.placeableNodes() < s.cfg.Codec.NStored()
}

// MonitorConfig tunes a HealthMonitor.
type MonitorConfig struct {
	// Interval between probe rounds. A positive Interval registers the
	// round as a pass of the scrubber's RepairManager; 0 registers
	// nothing, and the caller ticks by hand.
	Interval time.Duration
	// Probe overrides the backend's HealthChecker (tests inject fault
	// scripts here). When nil and the backend implements HealthChecker,
	// that is used; when neither exists the monitor is inert — it
	// registers no pass, and operator KillNode/ReviveNode calls stay the
	// only liveness authority.
	Probe func(node int) error
}

// HealthMonitor turns probe outcomes into liveness flips and repair
// work. With a probing backend the monitor's view tracks reality and
// overrides operator flips: a hand-killed node that still answers pings
// will be auto-revived, which is exactly the behavior the chaos tests
// assert (only a truly dead process stays dead).
type HealthMonitor struct {
	s     *Store
	rm    *RepairManager
	probe func(node int) error

	// Consecutive outcome streaks per node, touched only by tick.
	fails, oks []int
}

// NewHealthMonitor builds a monitor over the store whose confirmed
// deaths and revivals feed sc's repair queue. With a probe source and a
// positive cfg.Interval, its probe round becomes one of the passes of
// sc's RepairManager, started and stopped with it.
func NewHealthMonitor(s *Store, sc *Scrubber, cfg MonitorConfig) *HealthMonitor {
	probe := cfg.Probe
	if probe == nil {
		if hc, ok := s.cfg.Backend.(HealthChecker); ok {
			probe = hc.CheckNode
		}
	}
	m := &HealthMonitor{
		s:     s,
		rm:    sc.rm,
		probe: probe,
		fails: make([]int, s.cfg.Nodes),
		oks:   make([]int, s.cfg.Nodes),
	}
	if probe != nil && cfg.Interval > 0 {
		sc.rm.every(cfg.Interval, m.tick)
	}
	return m
}

// tick is one probe round: it probes every node in parallel, then
// applies confirmed transitions. Deaths and revivals feed one
// manifest-only presence walk into the prioritized repair queue, never a
// block read: every stripe touching a dead or just-revived node is
// enqueued, and the worker re-reads a revived node's blocks with their
// CRCs checked, rebuilding only the ones it lost while down. The round
// stays as short as the walk, so a second death during a revival is
// confirmed on time. A draining node is probed, killed and revived like
// any other: if it dies mid-drain its queued blocks are rebuilt instead
// of copied, and the drain still retires it. Retired (NodeDead) members
// are not probed: the monitor never kills or revives them, so a probe
// would only spend a dial, or a full dial timeout when the host is gone.
func (m *HealthMonitor) tick() {
	// The node set can grow between ticks (AddNode); size every round
	// off the membership table and stretch the streak slices to match.
	members := m.s.Members()
	n := len(members)
	for len(m.fails) < n {
		m.fails = append(m.fails, 0)
		m.oks = append(m.oks, 0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if members[i].State == NodeDead {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.probe(i)
		}(i)
	}
	wg.Wait()

	deaths := 0
	revived := map[int]bool{}
	for i := 0; i < n; i++ {
		if members[i].State == NodeDead {
			continue
		}
		if errs[i] != nil {
			m.fails[i]++
			m.oks[i] = 0
			if m.fails[i] >= failThreshold && m.s.Alive(i) {
				m.s.KillNode(i)
				deaths++
			}
			continue
		}
		m.oks[i]++
		m.fails[i] = 0
		if m.oks[i] >= reviveThreshold && !m.s.Alive(i) {
			m.s.ReviveNode(i)
			revived[i] = true
		}
	}
	if deaths > 0 || len(revived) > 0 {
		m.rm.presence(func(node int) bool { return revived[node] })
		// Counted only now: whoever sees AutoDeaths or AutoRevivals move
		// (a test, an operator script about to Drain) finds the stripes
		// the death or revival touched already in the repair queue.
		// Liveness flips earlier, so Alive(node) promises nothing about
		// the queue or the counters.
		m.s.m.autoDeaths.Add(int64(deaths))
		m.s.m.autoRevivals.Add(int64(len(revived)))
	}
}
