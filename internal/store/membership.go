package store

import (
	"errors"
	"fmt"
	"sort"
)

// Cluster membership is a first-class, durable subsystem: every node has
// one record holding its state in the planned topology and its
// probe-driven liveness bit, as HDFS's NameNode keeps one entry per
// DataNode. Liveness answers "can I read from it right now"; the state
// answers "should new bytes land on it".
//
//	          AddNode                    rebalance pass completes
//	  (new id) ──────▶ joining ────────────────────────▶ active
//	                                                        │
//	                                          Decommission  │
//	                                                        ▼
//	    dead ◀──────────────────────────────────────── draining
//	           drain completes (no manifest blocks left)
//
// A node that is gone for good is decommissioned like any other: the
// drain rebuilds its blocks from their groups. A dead member is down.
// Records are persisted in the metadata plane under n/ keys — a state
// change bumps the epoch, a liveness flip does not — and recovered on
// restart like the repair queue, so a kill -9 forgets nothing. Node ids
// are never reused: old manifests keep resolving mid-migration, new
// stripes simply stop landing on retired ids.

// NodeState is a node's place in the planned topology.
type NodeState string

const (
	// NodeActive nodes hold blocks and receive new placements.
	NodeActive NodeState = "active"
	// NodeJoining nodes receive new placements and rebalanced blocks but
	// held nothing historically; the first completed rebalance pass
	// promotes them to active.
	NodeJoining NodeState = "joining"
	// NodeDraining nodes serve reads but receive no placements; the
	// rebalancer queues their blocks for the repair pool to move away
	// and promotes them to dead when none remain.
	NodeDraining NodeState = "draining"
	// NodeDead nodes are out of the topology for good.
	NodeDead NodeState = "dead"
)

// memberRecord is the durable n/ record for one node.
type memberRecord struct {
	Node  int       `json:"node"`
	Addr  string    `json:"addr,omitempty"`
	State NodeState `json:"state"`
	// Epoch is the membership epoch of the record's last state change;
	// the store's epoch recovers as the max over records.
	Epoch int64 `json:"epoch"`
	// Down is the node's liveness: set by KillNode (the operator's or
	// the health monitor's) and by the transition to NodeDead, cleared
	// by ReviveNode.
	Down bool `json:"down,omitempty"`
}

// MemberInfo is the exported view of one membership record.
type MemberInfo struct {
	Node  int       `json:"node"`
	Addr  string    `json:"addr,omitempty"`
	State NodeState `json:"state"`
	Alive bool      `json:"alive"`
	Epoch int64     `json:"epoch"`
}

// placeable reports whether a node in this state may receive new blocks.
func (st NodeState) placeable() bool { return st == NodeActive || st == NodeJoining }

// keeps reports whether the node may keep and receive blocks: alive and
// in a placeable state.
func (m MemberInfo) keeps() bool { return m.Alive && m.State.placeable() }

// Members returns the membership table, one row per node id ever issued.
// It is also the store's one snapshot of liveness and state together.
func (s *Store) Members() []MemberInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]MemberInfo, len(s.members))
	for i, m := range s.members {
		out[i] = MemberInfo{Node: m.Node, Addr: m.Addr, State: m.State, Alive: !m.Down, Epoch: m.Epoch}
	}
	return out
}

// Epoch returns the current membership epoch: 0 for the seed topology,
// bumped by every membership change.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// MemberState returns a node's membership state (NodeDead for unknown
// ids — they are not in the topology).
func (s *Store) MemberState(n int) NodeState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n < 0 || n >= len(s.members) {
		return NodeDead
	}
	return s.members[n].State
}

// keeps reports whether node n may keep the blocks it holds: alive and
// in a placeable state. A repair writes every block it copies or
// rebuilds on a node that does not keep it somewhere that does.
func (s *Store) keeps(n int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return n >= 0 && n < len(s.members) && !s.members[n].Down && s.members[n].State.placeable()
}

// placeableNodes counts nodes eligible for new placements.
func (s *Store) placeableNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, m := range s.members {
		if !m.Down && m.State.placeable() {
			n++
		}
	}
	return n
}

// AddNode grows the cluster by one node and returns its id. The node
// starts joining: new stripes may land on it immediately and the
// rebalancer fills it toward the cluster mean, then promotes it to
// active. When the backend supports dynamic growth (NodeAdder — the
// netblock client), addr is registered there first; backends addressed
// by plain node index (MemBackend, DirBackend) need no registration and
// accept addr == "".
func (s *Store) AddNode(addr string) (int, error) {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()

	s.mu.RLock()
	id := len(s.members)
	s.mu.RUnlock()
	if na, ok := s.cfg.Backend.(NodeAdder); ok {
		got, err := na.AddNode(addr)
		if err != nil && !errors.Is(err, errors.ErrUnsupported) {
			return -1, fmt.Errorf("store: backend add node: %w", err)
		}
		if err == nil && got != id {
			return -1, fmt.Errorf("store: backend issued node id %d, membership expected %d", got, id)
		}
	}

	epoch := s.epoch.Add(1)
	rec := memberRecord{Node: id, Addr: addr, State: NodeJoining, Epoch: epoch}
	s.mu.Lock()
	s.members = append(s.members, rec)
	s.mu.Unlock()
	if err := s.db.Put(nodeKey(id), &rec); err != nil {
		return -1, err
	}
	return id, nil
}

// Decommission marks a node draining: it serves reads (if alive) but
// receives no new blocks, and each rebalance pass queues its stripes for
// the repair pool, which copies a readable block off it and rebuilds an
// unreadable one (the node may be dead) from its group. Its liveness
// stays the health monitor's. When nothing remains the node retires to
// dead.
func (s *Store) Decommission(n int) error {
	for {
		switch cur := s.MemberState(n); cur {
		case NodeDead:
			return fmt.Errorf("store: node %d is dead or unknown", n)
		case NodeDraining:
			return nil // idempotent
		default:
			// A rebalance pass may promote a joiner between the read and
			// the swap; the next round sees it active.
			if moved, err := s.transition(n, cur, NodeDraining); moved || err != nil {
				return err
			}
		}
	}
}

// transition is every membership state change, as a compare-and-set:
// node n moves to state to only while its state is from, bumping the
// epoch and persisting the record; a node moved to NodeDead is down in
// the same record. It reports whether the state changed. Decommission
// and the rebalancer (joining→active, draining→dead) are its callers.
func (s *Store) transition(n int, from, to NodeState) (bool, error) {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	s.mu.Lock()
	if n < 0 || n >= len(s.members) || s.members[n].State != from {
		s.mu.Unlock()
		return false, nil
	}
	s.members[n].State = to
	s.members[n].Epoch = s.epoch.Add(1)
	s.members[n].Down = s.members[n].Down || to == NodeDead
	rec := s.members[n]
	s.mu.Unlock()
	return true, s.db.Put(nodeKey(n), &rec)
}

// recoverMembers applies the n/ records found at open: the membership
// table may be larger than cfg.Nodes (nodes added before a crash), and
// nodes past the backend's construction size re-register their address
// with a NodeAdder backend so the datapath can reach them again.
func (s *Store) recoverMembers() error {
	var recs []*memberRecord
	it := s.db.Scan(nodePrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		recs = append(recs, v.(*memberRecord))
	}
	if len(recs) == 0 {
		return nil
	}
	// The plane's scan order is sharded; the NodeAdder registration below
	// must issue ids in node order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Node < recs[j].Node })
	var maxEpoch int64
	na, _ := s.cfg.Backend.(NodeAdder)
	s.mu.Lock()
	for _, m := range recs {
		if m.Node < 0 {
			continue
		}
		for len(s.members) <= m.Node {
			id := len(s.members)
			s.members = append(s.members, memberRecord{Node: id, State: NodeActive})
		}
		s.members[m.Node] = *m
		// A retired member is down, also in a record written before
		// liveness joined it.
		s.members[m.Node].Down = m.Down || m.State == NodeDead
		if m.Epoch > maxEpoch {
			maxEpoch = m.Epoch
		}
	}
	s.mu.Unlock()
	if s.epoch.Load() < maxEpoch {
		s.epoch.Store(maxEpoch)
	}
	// Re-register recovered nodes the backend was not constructed with —
	// every id in order, dead ones included, so backend ids stay aligned
	// with membership ids. The backend's own count is authoritative: a
	// grown net cluster reopened from the original address list starts
	// short, and the recorded addresses rebuild the tail.
	if na != nil {
		base := na.Nodes()
		for _, m := range recs {
			if m.Node < base {
				continue
			}
			got, err := na.AddNode(m.Addr)
			if err != nil {
				if errors.Is(err, errors.ErrUnsupported) {
					break
				}
				return fmt.Errorf("store: re-register node %d: %w", m.Node, err)
			}
			if got != m.Node {
				return fmt.Errorf("store: backend re-registered node %d as %d", m.Node, got)
			}
		}
	}
	return nil
}
