package store

import "time"

// The Rebalancer is the planning half of elastic membership. A drain is
// a repair: its pass hands every stripe with a block on a draining node
// to the repair queue through the same manifest-only presence walk the
// health monitor and ScrubPresence use, and the repair pool's CRC-checked
// re-probe copies a readable block off the drainer or, when it cannot be
// read (the drainer may be dead), rebuilds it from its stripe — with the
// LRC codec an r=5 light read per block where RS reads k=10. What the
// Rebalancer still moves itself is the joiner fill, paced by the repair
// budget like every other background block move, and it makes the
// membership promotions once their work is done.

// RebalanceReport summarizes one rebalance pass. Blocks moved are counted
// in Metrics (RebalancedBlocks for copies, RepairedBlocks for rebuilds):
// a drain's moves land after the pass, when the repair pool gets to them.
type RebalanceReport struct {
	// Stripes is how many stripes the drain walk examined (0 when no
	// node is draining).
	Stripes int
	// Enqueued is how many stripes with blocks on draining nodes (or,
	// as in every presence walk, on down nodes) were handed to the
	// repair queue.
	Enqueued int
	// Remaining is how many manifest blocks still sit on draining nodes
	// after the pass, plus a live drainer's moved copies still awaiting
	// deletion: the drain work the repair pool has yet to finish, and
	// the next pass queues again. Zero means every drain completed.
	Remaining int
	// Promoted counts membership promotions made at the end of the pass
	// (joining→active, draining→dead).
	Promoted int
}

// Rebalancer drives topology changes one synchronous pass
// (RebalanceOnce) at a time: it queues drains for the repair pool, fills
// joiners, and promotes members whose transition completed.
type Rebalancer struct {
	s  *Store
	rm *RepairManager
}

// NewRebalancer builds a rebalancer feeding the repair manager's queue.
// A period > 0 registers RebalanceOnce as one of the manager's passes,
// run every period between its Start and Stop; 0 leaves every pass to
// the caller.
func NewRebalancer(s *Store, rm *RepairManager, period time.Duration) *Rebalancer {
	rb := &Rebalancer{s: s, rm: rm}
	if period > 0 {
		rm.every(period, func() { rb.RebalanceOnce() })
	}
	return rb
}

// RebalanceOnce runs one synchronous pass: fill joining nodes toward
// the cluster mean, reclaim what is pending, enqueue every stripe with a
// block on a draining node for the repair pool, then promote members
// whose transition completed. A drain is asynchronous: its node retires
// on a later pass, once the repair queue has moved its blocks. A no-op
// when the topology has no drainers or joiners.
func (rb *Rebalancer) RebalanceOnce() RebalanceReport {
	var rep RebalanceReport
	s := rb.s
	members := s.Members()
	var drainers, joiners []int
	for i, m := range members {
		switch m.State {
		case NodeDraining:
			drainers = append(drainers, i)
		case NodeJoining:
			joiners = append(joiners, i)
		}
	}
	if len(drainers) == 0 && len(joiners) == 0 {
		return rep
	}

	if len(joiners) > 0 {
		rb.fillJoiners(joiners)
	}
	// Reclaim before the drain walk queues anything, so the deletes a
	// pass sends never race the moves it queues (a started worker takes
	// the first queued stripe at once): they are what was pending when
	// the pass began, plus the fill's moved copies.
	_ = s.Reclaim() // a refused delete stays pending and counts below
	if len(drainers) > 0 {
		walk := rb.rm.presence(drainingIn(members))
		rep.Stripes, rep.Enqueued = walk.Stripes, walk.Enqueued
	}

	// Promotions close the pass. Joining nodes have received their fill
	// (and new stripes already land on them), so they graduate to
	// active. A draining node retires to dead only when no manifest
	// block references it and, unless it is down (the reclaimer stops
	// asking a dead member), no copy moved off it awaits deletion —
	// anything else is Remaining work for the next pass. A promotion
	// whose record fails to persist reverts at the next open, and a later
	// pass makes it again.
	for _, j := range joiners {
		if moved, _ := s.transition(j, NodeJoining, NodeActive); moved {
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
				if moved, _ := s.transition(d, NodeDraining, NodeDead); moved {
					rep.Promoted++
				}
			} else {
				rep.Remaining += left
			}
		}
	}
	return rep
}

// drainingIn names the nodes that members, a pass's membership snapshot,
// has draining: a node that joined since the snapshot is no drainer.
func drainingIn(members []MemberInfo) func(node int) bool {
	return func(node int) bool { return node >= 0 && node < len(members) && members[node].State == NodeDraining }
}

// fillJoiners moves blocks from the most-loaded active nodes onto
// joining nodes until each joiner holds the cluster-mean share (or no
// rack-safe donor block remains). Counts are tracked live so one pass
// converges instead of overshooting.
func (rb *Rebalancer) fillJoiners(joiners []int) {
	s := rb.s
	counts := s.BlocksPerNode()
	total, eligible := 0, s.placeableNodes()
	for _, c := range counts {
		total += c
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
	members := s.Members()
	s.eachStripe(func(obj *objectInfo, idx int) bool {
		si := &obj.Stripes[idx]
		for pos, nd := range si.Nodes {
			// Donors are over-mean active nodes; a below-mean joiner
			// takes the block only when the move keeps the stripe's
			// node- and rack-spread intact.
			if nd < 0 || nd >= len(counts) || counts[nd] <= mean {
				continue
			}
			if nd >= len(members) || members[nd].State != NodeActive || !s.Alive(nd) {
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
			if rb.migrateTo(ref, &fresh, pos, target) > 0 {
				counts[nd]--
				counts[target]++
				deficit--
				if deficit == 0 {
					return false
				}
			}
		}
		return true
	})
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

// migrateTo copies stripe position pos of si, a snapshot of ref's
// stripe, to target and relocates it there — one joiner fill, its read
// paced by the repair budget. The commit hands the source replica (or,
// when the object changed mid-copy, the copy) to the reclaimer. It
// returns the payload bytes moved, 0 when the read or the splice failed.
func (rb *Rebalancer) migrateTo(ref stripeRef, si *stripeInfo, pos, target int) int64 {
	s := rb.s
	stripe := make([][]byte, len(si.Nodes))
	frames := frameSet{s: s, stripe: stripe}
	defer frames.release()
	var acct readAcct
	failed := s.readStripe(si, stripe, []int{pos}, make([]bool, len(stripe)), &acct, s.repairLim, frames.frame)
	s.m.rebalanceBlocksRead.Add(acct.blocks)
	s.m.rebalanceBytesRead.Add(acct.bytes)
	if failed != nil {
		return 0 // unreadable or corrupt replica: scrub's job, not a fill's
	}
	// Reframed in its frame, where an IntoReader backend already put these
	// bytes.
	payload := stripe[pos]
	if !s.relocate(ref, pos, target, AppendFrame(frames.frame(pos)[:0], payload)) {
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
	Active   int `json:"active"`
	Joining  int `json:"joining,omitempty"`
	Draining int `json:"draining,omitempty"`
	Dead     int `json:"dead,omitempty"`
	// DrainingBlocks counts manifest blocks still referencing draining
	// nodes — the work left before those drains complete. Zero when no
	// node is draining (the manifest walk is skipped).
	DrainingBlocks int `json:"draining_blocks,omitempty"`
	// Cumulative blocks copied off drainers and onto joiners (same
	// values as Metrics).
	RebalancedBlocks int64 `json:"rebalanced_blocks,omitempty"`
	RebalancedBytes  int64 `json:"rebalanced_bytes,omitempty"`
}

// MembershipStatus snapshots the planned topology and drain progress.
func (s *Store) MembershipStatus() MembershipStatus {
	st := MembershipStatus{
		Epoch:            s.epoch.Load(),
		RebalancedBlocks: s.m.rebalancedBlocks.Load(),
		RebalancedBytes:  s.m.rebalancedBytes.Load(),
	}
	members := s.Members()
	for _, m := range members {
		switch m.State {
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
		for i, m := range members {
			if m.State == NodeDraining && i < len(counts) {
				st.DrainingBlocks += counts[i]
			}
		}
	}
	return st
}
