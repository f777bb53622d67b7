package store

import "sync/atomic"

// readAcct collects the cost of one operation (a Get, a scrub pass or a
// repair) before it is merged into the store-wide counters.
type readAcct struct {
	blocks   int64
	bytes    int64
	light    int64
	heavy    int64
	degraded bool
}

// add folds b into a — the streaming read path gives each concurrent
// fetch its own acct and merges them in stripe order.
func (a *readAcct) add(b *readAcct) {
	a.blocks += b.blocks
	a.bytes += b.bytes
	a.light += b.light
	a.heavy += b.heavy
	if b.degraded {
		a.degraded = true
	}
}

// ReadInfo reports what one Get actually cost — the per-read observables
// behind the paper's repair-traffic plots (Figs 4–6): a degraded LRC read
// fetches the r=5 light set where the RS baseline fetches k=10 blocks.
type ReadInfo struct {
	// BlocksRead / BytesRead count backend block fetches, including any
	// extra blocks pulled in for reconstruction.
	BlocksRead int64
	BytesRead  int64
	// LightRepairs / HeavyRepairs count blocks rebuilt inline by each
	// decoder.
	LightRepairs int64
	HeavyRepairs int64
	// Degraded is true when any block had to be reconstructed.
	Degraded bool
	// BytesWritten is how many object bytes reached the caller's writer
	// (the full object size on a successful Get/GetWriter; possibly fewer
	// on a mid-stream failure).
	BytesWritten int64
}

func (a *readAcct) info() ReadInfo {
	return ReadInfo{
		BlocksRead:   a.blocks,
		BytesRead:    a.bytes,
		LightRepairs: a.light,
		HeavyRepairs: a.heavy,
		Degraded:     a.degraded,
	}
}

// counters is the store-wide metric state (atomics: hot paths touch these
// concurrently).
type counters struct {
	putBlocks, putBytes   atomic.Int64
	readBlocks, readBytes atomic.Int64
	degradedReads         atomic.Int64
	lightRepairs          atomic.Int64
	heavyRepairs          atomic.Int64

	scrubbedStripes  atomic.Int64
	scrubBlocksRead  atomic.Int64
	scrubBytesRead   atomic.Int64
	missingFound     atomic.Int64
	corruptFound     atomic.Int64
	repairBlocksRead atomic.Int64
	repairBytesRead  atomic.Int64
	repairedBlocks   atomic.Int64
	repairedBytes    atomic.Int64
	repairsLight     atomic.Int64
	repairsHeavy     atomic.Int64

	autoDeaths   atomic.Int64
	autoRevivals atomic.Int64

	rebalancedBlocks    atomic.Int64
	rebalancedBytes     atomic.Int64
	rebalanceBlocksRead atomic.Int64
	rebalanceBytesRead  atomic.Int64
}

func (c *counters) mergeRead(a *readAcct) {
	c.readBlocks.Add(a.blocks)
	c.readBytes.Add(a.bytes)
	c.lightRepairs.Add(a.light)
	c.heavyRepairs.Add(a.heavy)
	if a.degraded {
		c.degradedReads.Add(1)
	}
}

func (c *counters) mergeScrub(a *readAcct) {
	c.scrubBlocksRead.Add(a.blocks)
	c.scrubBytesRead.Add(a.bytes)
}

func (c *counters) mergeRepair(a *readAcct) {
	c.repairBlocksRead.Add(a.blocks)
	c.repairBytesRead.Add(a.bytes)
	c.repairsLight.Add(a.light)
	c.repairsHeavy.Add(a.heavy)
}

// Metrics is a point-in-time copy of the store's counters.
type Metrics struct {
	// Put path.
	PutBlocks, PutBytes int64
	// Get path (degraded reads included).
	ReadBlocks, ReadBytes      int64
	DegradedReads              int64
	LightRepairs, HeavyRepairs int64
	// Scrub path: what the integrity walk read and found.
	ScrubbedStripes                 int64
	ScrubBlocksRead, ScrubBytesRead int64
	MissingBlocksFound              int64
	CorruptBlocksFound              int64
	// Repair path: what the BlockFixer read and rewrote. The reads
	// include every re-probe, so a drain copy's one read is here. The
	// paper's locality win is RepairBytesRead(LRC) ≈ half
	// RepairBytesRead(RS) for single-block losses.
	RepairBlocksRead, RepairBytesRead int64
	RepairedBlocks                    int64
	// RepairedBytes counts payload bytes rebuilt and rewritten by the
	// BlockFixer — the numerator of repair throughput (MB/s repaired).
	RepairedBytes              int64
	RepairsLight, RepairsHeavy int64
	// HedgeFires is always 0: the store has no hedged reads. It stays
	// only because the benchmark harness reads it, and goes when the
	// harness stops naming the store's internals (ROADMAP.md, item 1).
	HedgeFires int64
	// Failure plane: liveness flips made by the HealthMonitor without an
	// operator.
	AutoDeaths, AutoRevivals int64
	// BreakerOpens is always 0: the transport has no circuit breaker,
	// the HealthMonitor alone decides who is down. It stays only because
	// the benchmark harness reads it, and goes when the harness stops
	// naming the store's internals (ROADMAP.md, item 1).
	BreakerOpens int64
	// Rebalance path: blocks copied off draining nodes by the repair pool
	// or onto joiners by the Rebalancer, and their payload bytes; then
	// what the joiner fills read from the backend (a drain copy's read is
	// a repair read). A copy reads exactly one block per moved block; a
	// drained block that cannot be read is rebuilt and shows up in the
	// Repair counters instead (where LRC reads half of RS's bytes).
	RebalancedBlocks, RebalancedBytes       int64
	RebalanceBlocksRead, RebalanceBytesRead int64
	// Hot-block cache (Config.CacheBytes; all zero when disabled): hits
	// and misses on the foreground read path, entries evicted by the
	// byte budget, entries dropped because reclamation deleted their copy
	// (a retired version's blocks, or the old copy of a relocated block,
	// once no reader's snapshot names it), and the bytes the resident
	// payloads pin right now (their capacity, which is what the budget is
	// charged). A hot object's steady state is all hits —
	// ReadBlocks/ReadBytes stop growing while CacheHits climbs.
	CacheHits, CacheMisses             int64
	CacheEvictions, CacheInvalidations int64
	CacheBytes                         int64
	// ReclaimPendingBlocks is a gauge: block keys of retired versions and
	// stale copies of relocated blocks waiting to be deleted. It
	// normally stays below 256 (reclaimBatch). It also grows while a
	// streaming read's snapshot names a retired or moved copy; growth
	// past that means deletes are failing against a member node.
	ReclaimPendingBlocks int64
	// Wire totals, present when the backend implements WireStats (the
	// TCP netblock client): cumulative protocol bytes sent to and
	// received from all nodes. These count what actually crossed the
	// network, so the LRC-vs-RS repair comparison holds on real traffic.
	WireSentBytes, WireRecvBytes int64
	// Metadata plane: WAL bytes appended, fsync groups (concurrent
	// commits that shared a sync count once), records replayed by the
	// last Open, and prefix scans started (every scrub pass walks at
	// least one).
	MetaWALBytes        int64
	MetaCommitBatches   int64
	MetaReplayedRecords int64
	MetaIteratorScans   int64
}

// Metrics returns a snapshot of the store's counters.
func (s *Store) Metrics() Metrics {
	mm := s.db.Metrics()
	var wireSent, wireRecv int64
	if ws, ok := s.cfg.Backend.(WireStats); ok {
		sent, recv := ws.WireTraffic()
		for i := range sent {
			wireSent += sent[i]
			wireRecv += recv[i]
		}
	}
	m := Metrics{
		PutBlocks:           s.m.putBlocks.Load(),
		PutBytes:            s.m.putBytes.Load(),
		ReadBlocks:          s.m.readBlocks.Load(),
		ReadBytes:           s.m.readBytes.Load(),
		DegradedReads:       s.m.degradedReads.Load(),
		LightRepairs:        s.m.lightRepairs.Load(),
		HeavyRepairs:        s.m.heavyRepairs.Load(),
		ScrubbedStripes:     s.m.scrubbedStripes.Load(),
		ScrubBlocksRead:     s.m.scrubBlocksRead.Load(),
		ScrubBytesRead:      s.m.scrubBytesRead.Load(),
		MissingBlocksFound:  s.m.missingFound.Load(),
		CorruptBlocksFound:  s.m.corruptFound.Load(),
		RepairBlocksRead:    s.m.repairBlocksRead.Load(),
		RepairBytesRead:     s.m.repairBytesRead.Load(),
		RepairedBlocks:      s.m.repairedBlocks.Load(),
		RepairedBytes:       s.m.repairedBytes.Load(),
		RepairsLight:        s.m.repairsLight.Load(),
		RepairsHeavy:        s.m.repairsHeavy.Load(),
		AutoDeaths:          s.m.autoDeaths.Load(),
		AutoRevivals:        s.m.autoRevivals.Load(),
		RebalancedBlocks:    s.m.rebalancedBlocks.Load(),
		RebalancedBytes:     s.m.rebalancedBytes.Load(),
		RebalanceBlocksRead: s.m.rebalanceBlocksRead.Load(),
		RebalanceBytesRead:  s.m.rebalanceBytesRead.Load(),
		WireSentBytes:       wireSent,
		WireRecvBytes:       wireRecv,

		ReclaimPendingBlocks: s.pendingBlocks.Load(),

		MetaWALBytes:        mm.WALBytes,
		MetaCommitBatches:   mm.CommitBatches,
		MetaReplayedRecords: mm.ReplayedRecords,
		MetaIteratorScans:   mm.IteratorScans,
	}
	if c := s.cache; c != nil {
		m.CacheHits = c.hits.Load()
		m.CacheMisses = c.misses.Load()
		m.CacheEvictions = c.evictions.Load()
		m.CacheInvalidations = c.invalidations.Load()
		m.CacheBytes = c.bytes.Load()
	}
	return m
}
