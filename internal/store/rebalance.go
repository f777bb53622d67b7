package store

import (
	"sort"
	"time"
)

// The Rebalancer is the migration half of elastic membership: a
// background walk that moves manifest blocks off draining nodes and onto
// joiners, paced by the rebalance token bucket so a planned topology
// change never starves foreground traffic. It is deliberately shaped
// like the Scrubber — a periodic synchronous pass over the manifest
// walk — and it reuses the repair machinery for the one case a copy
// cannot handle: a draining node that is already dead drains by
// presence-walk repair (each stripe's survivors rebuild the lost block
// elsewhere; with the LRC codec that is an r=5 light read per block
// where RS reads k=10).

// RebalanceReport summarizes one rebalance pass.
type RebalanceReport struct {
	// Stripes is how many stripes the pass examined.
	Stripes int
	// Moved counts blocks migrated (drain moves and joiner fills), and
	// MovedBytes their payload bytes.
	Moved      int
	MovedBytes int64
	// Enqueued is how many stripes with unreadable blocks on draining
	// nodes were handed to the repair queue (the dead-drainer path).
	Enqueued int
	// Remaining is how many manifest blocks still sit on draining nodes
	// after the pass — repairs still in flight, or moves that failed and
	// will be retried next pass. Zero means every drain completed.
	Remaining int
	// Promoted counts membership promotions made at the end of the pass
	// (joining→active, draining→dead).
	Promoted int
}

// Rebalancer migrates blocks to match the planned topology. Passes run
// periodically in the background (Start/Stop) or synchronously
// (RebalanceOnce); rm may be nil, in which case dead drainers cannot
// make progress until a repair manager exists.
type Rebalancer struct {
	s  *Store
	rm *RepairManager
	// interval is the background pass period.
	interval time.Duration
	loop     periodic
}

// NewRebalancer builds a rebalancer feeding the repair manager's queue
// for unreadable drainers. Interval ≤ 0 defaults to 5s.
func NewRebalancer(s *Store, rm *RepairManager, interval time.Duration) *Rebalancer {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &Rebalancer{s: s, rm: rm, interval: interval}
}

// Start launches the periodic background pass. Idempotent.
func (rb *Rebalancer) Start() { rb.loop.start(rb.interval, func() { rb.RebalanceOnce() }) }

// Stop halts the background pass. Idempotent; blocks until an in-flight
// pass finishes.
func (rb *Rebalancer) Stop() { rb.loop.halt() }

// drainMove is one candidate migration off a draining node, with the
// risk priority it sorts under.
type drainMove struct {
	ref stripeRef
	pos int
	// erasures is the stripe's dead-block count when the candidate was
	// collected: a block whose stripe is already degraded is closer to
	// the data-loss edge and moves first (the drain-ordering policy of
	// the retired HDFS simulation, ported to the real datapath).
	erasures int
	seq      int
}

// RebalanceOnce runs one synchronous pass: walk every stripe, migrate
// blocks off draining nodes (most-endangered stripes first), enqueue
// repair for blocks a dead drainer can no longer serve, fill joining
// nodes toward the cluster mean, then promote members whose transition
// completed. A no-op when the topology has no drainers or joiners.
func (rb *Rebalancer) RebalanceOnce() RebalanceReport {
	var rep RebalanceReport
	s := rb.s
	states := s.memberStates()
	var drainers, joiners []int
	for i, st := range states {
		switch st {
		case NodeDraining:
			drainers = append(drainers, i)
		case NodeJoining:
			joiners = append(joiners, i)
		}
	}
	if len(drainers) == 0 && len(joiners) == 0 {
		return rep
	}

	moves := rb.collectDrainWork(&rep, states)
	// Most-endangered blocks first: a stripe already missing blocks is
	// the one a further failure could push past recoverability.
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].erasures != moves[j].erasures {
			return moves[i].erasures > moves[j].erasures
		}
		return moves[i].seq < moves[j].seq
	})
	for _, mv := range moves {
		if n := rb.migrateOff(mv.ref, mv.pos); n > 0 {
			rep.Moved++
			rep.MovedBytes += n
		}
	}

	if len(joiners) > 0 {
		rb.fillJoiners(&rep, joiners)
	}

	// Promotions close the pass. Joining nodes have received their fill
	// (and new stripes already land on them), so they graduate to
	// active. A draining node retires to dead only when no manifest
	// block references it and, unless it is down (the reclaimer stops
	// asking a dead member), no copy moved off it awaits deletion —
	// anything else is Remaining work for the next pass.
	_ = s.Reclaim() // a refused delete stays pending and counts below
	for _, j := range joiners {
		if s.promote(j, NodeJoining, NodeActive) {
			rep.Promoted++
		}
	}
	if len(drainers) > 0 {
		counts := s.BlocksPerNode() // node ids only grow: it covers every drainer
		for _, d := range drainers {
			left := counts[d]
			if s.Alive(d) {
				left += s.deletesOn(d)
			}
			if left == 0 {
				if s.promote(d, NodeDraining, NodeDead) {
					rep.Promoted++
				}
			} else {
				rep.Remaining += left
			}
		}
	}
	return rep
}

// collectDrainWork walks the manifests once, returning the readable
// blocks on draining nodes as move candidates and enqueueing repair for
// stripes whose draining node is dead (mirroring ScrubPresence: the
// whole damaged set goes in one prioritized item).
func (rb *Rebalancer) collectDrainWork(rep *RebalanceReport, states []NodeState) []drainMove {
	s := rb.s
	alive := s.aliveSnapshot()
	n := s.cfg.Codec.NStored()
	var moves []drainMove
	it := s.db.Scan(objPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		obj := v.(*objectInfo)
		for idx := range obj.Stripes {
			si := &obj.Stripes[idx]
			rep.Stripes++
			avail := make([]bool, n)
			var dead, drainPos []int
			deadDrainer := false
			for pos := 0; pos < n; pos++ {
				// A node that joined since states was taken is no drainer.
				nd := si.Nodes[pos]
				up := nd >= 0 && nd < len(alive) && alive[nd]
				draining := nd >= 0 && nd < len(states) && states[nd] == NodeDraining
				avail[pos] = up
				switch {
				case !up:
					dead = append(dead, pos)
					deadDrainer = deadDrainer || draining
				case draining:
					drainPos = append(drainPos, pos)
				}
			}
			for _, pos := range drainPos {
				moves = append(moves, drainMove{
					ref:      stripeRef{name: obj.Name, gen: obj.Gen, idx: idx},
					pos:      pos,
					erasures: len(dead),
					seq:      si.Seq,
				})
			}
			if deadDrainer && rb.rm != nil {
				if rb.rm.enqueue(repairItem{
					ref:      stripeRef{name: obj.Name, gen: obj.Gen, idx: idx},
					damaged:  dead,
					erasures: len(dead),
					light:    s.lightRepairable(dead, avail),
				}) {
					rep.Enqueued++
				}
			}
		}
	}
	return moves
}

// fillJoiners moves blocks from the most-loaded active nodes onto
// joining nodes until each joiner holds the cluster-mean share (or no
// rack-safe donor block remains). Counts are tracked live so one pass
// converges instead of overshooting.
func (rb *Rebalancer) fillJoiners(rep *RebalanceReport, joiners []int) {
	s := rb.s
	counts := s.BlocksPerNode()
	placeable := s.placeableSnapshot()
	total, eligible := 0, 0
	for i, c := range counts {
		total += c
		if i < len(placeable) && placeable[i] {
			eligible++
		}
	}
	if eligible == 0 || total == 0 {
		return
	}
	// Floor mean: joiners fill up to it, donors give down to it. With a
	// perfectly even pre-join layout every old node sits one above the
	// new floor, so the fill converges without ever overshooting.
	mean := total / eligible
	if mean == 0 {
		return
	}
	deficit := 0
	for _, j := range joiners {
		if j < len(counts) && counts[j] < mean {
			deficit += mean - counts[j]
		}
	}
	if deficit == 0 {
		return
	}
	states := s.memberStates()
	it := s.db.Scan(objPrefix)
	for deficit > 0 {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		obj := v.(*objectInfo)
		for idx := range obj.Stripes {
			if deficit == 0 {
				break
			}
			si := &obj.Stripes[idx]
			for pos, nd := range si.Nodes {
				// Donors are over-mean active nodes; a below-mean joiner
				// takes the block only when the move keeps the stripe's
				// node- and rack-spread intact.
				if nd < 0 || nd >= len(counts) || counts[nd] <= mean {
					continue
				}
				if nd >= len(states) || states[nd] != NodeActive || !s.Alive(nd) {
					continue
				}
				// The iterator's manifest is a point-in-time view; an
				// earlier fill may already have moved a sibling of this
				// stripe, so safety is judged against a fresh snapshot.
				ref := stripeRef{name: obj.Name, gen: obj.Gen, idx: idx}
				fresh, ok := s.stripeSnapshot(ref)
				if !ok || fresh.Nodes[pos] != nd {
					continue
				}
				target := -1
				for _, j := range joiners {
					if j < len(counts) && counts[j] < mean && s.placementSafe(&fresh, pos, j) && s.Alive(j) {
						if target < 0 || counts[j] < counts[target] {
							target = j
						}
					}
				}
				if target < 0 {
					continue
				}
				if n := rb.migrateTo(ref, &fresh, pos, target); n > 0 {
					rep.Moved++
					rep.MovedBytes += n
					counts[nd]--
					counts[target]++
					deficit--
					if deficit == 0 {
						break
					}
				}
			}
		}
	}
}

// placementSafe reports whether putting stripe position pos on node t
// keeps the strict placement rule: no other position of the stripe on t,
// and no other block of pos's repair group in t's rack. Used as the
// gate for balance-driven moves — unlike a repair, a fill has no urgency
// and never takes a relaxed placement.
func (s *Store) placementSafe(si *stripeInfo, pos, t int) bool {
	g := s.placer.groupOf[pos]
	for q, n := range si.Nodes {
		if q == pos || n < 0 {
			continue
		}
		if n == t {
			return false
		}
		if g >= 0 && s.placer.groupOf[q] == g && s.placer.rackOf(n) == s.placer.rackOf(t) {
			return false
		}
	}
	return true
}

// migrateOff moves one block off its (draining) node to a placer-chosen
// target, returning the payload bytes moved (0 when the move was
// skipped or failed; the next pass retries). The read is paced by the
// rebalance limiter and CRC-verified — a corrupt replica is never
// propagated, it is left for the scrubber to find and repair.
func (rb *Rebalancer) migrateOff(ref stripeRef, pos int) int64 {
	s := rb.s
	si, ok := s.stripeSnapshot(ref)
	if !ok {
		return 0 // object deleted or overwritten since collection
	}
	src := si.Nodes[pos]
	if src < 0 || !s.Alive(src) || s.MemberState(src) != NodeDraining {
		return 0 // moved, died or re-planned under us
	}
	target := s.replacement(&si, pos)
	if target < 0 || target == src {
		return 0 // nowhere to go; Remaining reports it
	}
	return rb.migrateTo(ref, &si, pos, target)
}

// migrateTo copies stripe position pos of si, a snapshot of ref's
// stripe, to target and relocates it there — the atomic unit of
// rebalance. The copy keeps its key; the commit hands the source replica
// (or, when the object changed mid-copy, the copy) to the reclaimer.
func (rb *Rebalancer) migrateTo(ref stripeRef, si *stripeInfo, pos, target int) int64 {
	s := rb.s
	f := s.getFrame()
	defer s.frames.Put(f)
	var acct readAcct
	payload, err := s.readBlockPayload(si, pos, &acct, s.rebalLim, *f)
	s.m.rebalanceBlocksRead.Add(acct.blocks)
	s.m.rebalanceBytesRead.Add(acct.bytes)
	if err != nil {
		return 0 // unreadable or corrupt replica: scrub's job, not rebalance's
	}
	// Reframed in f, where an IntoReader backend already put these bytes.
	if !s.relocate(ref, pos, target, si.Keys[pos], AppendFrame((*f)[:0], payload)) {
		return 0
	}
	s.m.rebalancedBlocks.Add(1)
	s.m.rebalancedBytes.Add(int64(len(payload)))
	return int64(len(payload))
}

// MembershipStatus is the observability view of elastic membership —
// what the gateway's /healthz and xorbasctl node status report.
type MembershipStatus struct {
	Epoch int64 `json:"epoch"`
	// Per-state member counts.
	Active, Joining, Draining, Dead int
	// DrainingBlocks counts manifest blocks still referencing draining
	// nodes — the work left before those drains complete. Zero when no
	// node is draining (the manifest walk is skipped).
	DrainingBlocks int
	// Cumulative migration counters (same values as Metrics).
	RebalancedBlocks, RebalancedBytes int64
}

// MembershipStatus snapshots the planned topology and drain progress.
func (s *Store) MembershipStatus() MembershipStatus {
	st := MembershipStatus{
		Epoch:            s.epoch.Load(),
		RebalancedBlocks: s.m.rebalancedBlocks.Load(),
		RebalancedBytes:  s.m.rebalancedBytes.Load(),
	}
	states := s.memberStates()
	for _, state := range states {
		switch state {
		case NodeActive:
			st.Active++
		case NodeJoining:
			st.Joining++
		case NodeDraining:
			st.Draining++
		case NodeDead:
			st.Dead++
		}
	}
	if st.Draining > 0 {
		counts := s.BlocksPerNode()
		for i, state := range states {
			if state == NodeDraining && i < len(counts) {
				st.DrainingBlocks += counts[i]
			}
		}
	}
	return st
}
