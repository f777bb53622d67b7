package store

import (
	"sync"
	"time"
)

// The auto-liveness half of the failure plane. The paper's clusters
// learn of dead DataNodes from missed heartbeats and repair without an
// operator; here the HealthMonitor plays the NameNode's heartbeat
// ledger: it probes every node through the backend's health interface,
// flips the plane-durable liveness record after K consecutive failures
// (with hysteresis so a flapping node doesn't thrash repair), enqueues
// prioritized repair on confirmed death, and re-marks alive + re-scrubs
// on revival.

// NodeHealthInfo is one node's failure-plane snapshot: liveness as the
// store records it, plus whatever windowed transport accounting the
// backend keeps (breaker state, error rate, latency quantiles). A
// non-tracking backend leaves everything but Node and Alive zero, with
// State "untracked".
type NodeHealthInfo struct {
	Node  int
	Alive bool
	// State is the node's circuit-breaker state: "closed", "open",
	// "half-open", or "untracked" when the backend keeps no breaker.
	State       string
	ConsecFails int
	// Opens counts breaker open transitions since the client was built.
	Opens   int64
	LastErr string
	// Windowed accounting over the backend's recent operations.
	WindowOps     int
	WindowErrRate float64
	P50, P99      time.Duration
}

// HealthChecker is an optional Backend extension (like WireStats): one
// active liveness probe against a node. A nil error means the node
// answered; any error is a miss. Implementations may fail fast from
// local state (an open circuit breaker) instead of touching the wire —
// a node that has already proven itself down this cooldown window is
// down.
type HealthChecker interface {
	CheckNode(node int) error
}

// HealthStats is an optional Backend extension: per-node breaker and
// window snapshots for observability (the gateway's /healthz, xorbasctl
// node ping).
type HealthStats interface {
	NodeHealth() []NodeHealthInfo
}

// NodeHealth reports every node's failure-plane state: the backend's
// breaker/window snapshot when it keeps one (HealthStats), overlaid
// with the store's own liveness record.
func (s *Store) NodeHealth() []NodeHealthInfo {
	alive := s.aliveSnapshot()
	infos := make([]NodeHealthInfo, len(alive))
	for i := range infos {
		infos[i].State = "untracked"
	}
	if hs, ok := s.cfg.Backend.(HealthStats); ok {
		for i, info := range hs.NodeHealth() {
			if i < len(infos) {
				infos[i] = info
			}
		}
	}
	for i := range infos {
		infos[i].Node = i
		infos[i].Alive = alive[i]
	}
	return infos
}

// LiveNodes counts nodes currently marked alive.
func (s *Store) LiveNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	live := 0
	for _, a := range s.alive {
		if a {
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
	return s.PlaceableNodes() < s.cfg.Codec.NStored()
}

// MonitorConfig tunes a HealthMonitor. Zero fields take defaults.
type MonitorConfig struct {
	// Interval between probe rounds (default 1s).
	Interval time.Duration
	// FailThreshold is how many consecutive missed probes confirm a
	// death (default 3) — the flap damper on the way down.
	FailThreshold int
	// ReviveThreshold is how many consecutive answered probes confirm a
	// revival (default 2) — hysteresis so a half-up node doesn't bounce
	// between repair and service.
	ReviveThreshold int
	// Probe overrides the backend's HealthChecker (tests inject fault
	// scripts here). When nil and the backend implements HealthChecker,
	// that is used; when neither exists the monitor is inert — Start
	// does nothing, and operator KillNode/ReviveNode calls stay the only
	// liveness authority.
	Probe func(node int) error
}

func (c *MonitorConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReviveThreshold <= 0 {
		c.ReviveThreshold = 2
	}
}

// HealthMonitor turns probe outcomes into liveness flips and repair
// work. With a probing backend the monitor's view tracks reality and
// overrides operator flips: a hand-killed node that still answers pings
// will be auto-revived, which is exactly the behavior the chaos tests
// assert (only a truly dead process stays dead).
type HealthMonitor struct {
	s     *Store
	rm    *RepairManager
	sc    *Scrubber
	cfg   MonitorConfig
	probe func(node int) error

	// Consecutive outcome streaks per node, touched only by the monitor
	// goroutine.
	fails, oks []int

	loop periodic
}

// NewHealthMonitor builds a monitor over the store. rm and sc may be
// nil — then confirmed deaths still flip liveness but nothing enqueues
// repair (the next operator-run scrub picks the damage up).
func NewHealthMonitor(s *Store, rm *RepairManager, sc *Scrubber, cfg MonitorConfig) *HealthMonitor {
	cfg.fillDefaults()
	probe := cfg.Probe
	if probe == nil {
		if hc, ok := s.cfg.Backend.(HealthChecker); ok {
			probe = hc.CheckNode
		}
	}
	return &HealthMonitor{
		s:     s,
		rm:    rm,
		sc:    sc,
		cfg:   cfg,
		probe: probe,
		fails: make([]int, s.cfg.Nodes),
		oks:   make([]int, s.cfg.Nodes),
	}
}

// Start launches the probe loop. Idempotent; a no-op when no probe
// source exists.
func (m *HealthMonitor) Start() {
	if m.probe == nil {
		return
	}
	m.loop.start(m.cfg.Interval, m.tick)
}

// Stop halts the probe loop and waits for any in-flight round (and the
// scrubs it triggered) to finish. Idempotent.
func (m *HealthMonitor) Stop() { m.loop.halt() }

// tick probes every node in parallel, then applies confirmed
// transitions. A death enqueues a presence scrub (manifest-only walk —
// every stripe touching the dead node lands in the prioritized repair
// queue); a revival runs a full scrub so anything the node lost while
// down is found and fixed.
func (m *HealthMonitor) tick() {
	// The node set can grow between ticks (AddNode); size every round
	// off the membership table and stretch the streak slices to match.
	states := m.s.memberStates()
	n := len(states)
	for len(m.fails) < n {
		m.fails = append(m.fails, 0)
		m.oks = append(m.oks, 0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.probe(i)
		}(i)
	}
	wg.Wait()

	deaths, revived := 0, false
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			m.fails[i]++
			m.oks[i] = 0
			// A draining node's liveness belongs to the rebalancer's
			// drain protocol, not the monitor: flipping it dead here
			// would turn a planned drain into repair churn. Keep probing
			// (the streaks stay current) but suppress the kill.
			if states[i] == NodeDraining {
				continue
			}
			if m.fails[i] >= m.cfg.FailThreshold && m.s.Alive(i) {
				m.s.KillNode(i)
				deaths++
			}
			continue
		}
		m.oks[i]++
		m.fails[i] = 0
		// Suppress revival for draining nodes (same reasoning as above)
		// and for dead members: a decommissioned process that still
		// answers pings must never rejoin the topology.
		if states[i] == NodeDraining || states[i] == NodeDead {
			continue
		}
		if m.oks[i] >= m.cfg.ReviveThreshold && !m.s.Alive(i) {
			m.s.ReviveNode(i)
			m.s.m.autoRevivals.Add(1)
			revived = true
		}
	}
	if deaths > 0 {
		if m.sc != nil {
			m.sc.ScrubPresence()
		}
		// Counted only now: whoever sees AutoDeaths move (a test, an
		// operator script about to Drain) finds the death's stripes
		// already in the repair queue. Liveness flips earlier, so
		// !Alive(node) promises nothing about the queue.
		m.s.m.autoDeaths.Add(int64(deaths))
	}
	if revived && m.sc != nil {
		m.sc.ScrubOnce()
	}
}
