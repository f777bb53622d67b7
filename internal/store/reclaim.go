package store

import (
	"fmt"
	"sort"

	"repro/internal/meta"
)

// Reclamation is the one way a block copy ends, on its node and in the
// cache. Retiring a version (an overwrite, a Delete, a failed PUT's
// rollback) and relocating a block (a repair or rebalance moving it)
// delete nothing on their own: the commit that retires or splices stages
// a record naming what leaves (t/ or r/, see meta.go), so a block is
// named durably before anything stops naming it, at no extra fsync.
// Every copy that leaves then joins one pending list, and the goroutine
// whose entry brings reclaimBatch fresh block keys into it reclaims the
// whole list inline: the keys grouped by node, one DeleteMany per node
// through fanOut, each key's cache entry dropped, then one
// commit-no-sync clearing the record of every entry wholly gone. A batch
// closes at a fixed count of keys, never on a timer, so one client at a
// fixed seed makes the same requests on every run; Reclaim closes one
// early (a rebalance pass and Close do).
//
// Every copy a PUT or a relocation writes gets a fresh generation in its
// key, and recovery resumes past every generation a record still names,
// so nothing is written under a key a pending delete names: a pending
// delete never names a live copy, whatever node the block is on by then.
//
// A batch sorts its entries two ways: work, or wait while a streaming
// read's pinned snapshot names one of the entry's blocks, so a reader
// never finds a copy gone that its snapshot names. A reader of the
// manifest a relocation committed names the new copy and holds nothing
// back, so a block read without pause still moves. An entry that waited,
// or has a block on a node that refused the delete, stays in the list
// for the next batch, unless the node has left the membership. Open
// queues every record it finds and does no I/O; Close drains the list
// before it closes the plane.

// reclaimBatch is how many freshly queued block keys close a batch: 16
// overwrites of a one-stripe object on a 16-wide stripe, so every node
// gets its 16 keys in one request instead of 16.
const reclaimBatch = 256

// blockRef names one stored block.
type blockRef struct {
	node int
	key  string
}

// retired is one entry on the pending list: a retired version, or the
// stale copy of a relocated block.
type retired struct {
	rec string // the meta record naming the entry's blocks
	// ver is the version the blocks belong to, whose pinned snapshots
	// may name them; zero when no snapshot can: a relocation recovered
	// at open (no reader survives a restart), or a copy no manifest took.
	ver verKey
	// left holds the entry's blocks not known to be deleted yet.
	left []blockRef
}

// retiredOf lists every placed block of obj, dead nodes included
// (backends outlive simulated node failures).
func retiredOf(obj *objectInfo) *retired {
	r := &retired{rec: tombKey(obj), ver: verKey{obj.Name, obj.Gen}}
	for i := range obj.Stripes {
		si := &obj.Stripes[i]
		for pos, node := range si.Nodes {
			if node >= 0 {
				r.left = append(r.left, blockRef{node, si.Keys[pos]})
			}
		}
	}
	return r
}

// retire queues an entry whose record the caller has committed — a
// replaced, deleted or rolled-back version, or the copy a relocation
// replaced — and reclaims the whole list when that closes a batch.
func (s *Store) retire(r *retired) {
	var batch []*retired
	s.reclaimMu.Lock()
	s.queue(r)
	if s.fresh >= reclaimBatch {
		batch = s.takePending()
	}
	s.reclaimMu.Unlock()
	if batch != nil {
		_ = s.reclaim(batch) // what failed is queued again for the next batch
	}
}

// queue appends r to the pending list. Call with reclaimMu held, or
// before the store is shared (open).
func (s *Store) queue(r *retired) {
	s.pending = append(s.pending, r)
	s.fresh += len(r.left)
	s.pendingBlocks.Add(int64(len(r.left)))
}

// takePending empties the pending list into a batch. Call with
// reclaimMu held.
func (s *Store) takePending() []*retired {
	batch := s.pending
	s.pending, s.fresh = nil, 0
	return batch
}

// deletesOn counts node's relocated copies that await deletion: its
// relocation records, which reclaim clears only once the delete landed.
func (s *Store) deletesOn(node int) int {
	return s.db.Len(fmt.Sprintf("%s%d/", relocPrefix, node))
}

// Reclaim deletes now every block the pending list holds, instead of
// waiting for the batch it would close with. It returns the first delete
// that failed, in which case those blocks stay pending; an entry a
// reader's snapshot still names waits without an error (see reclaim).
func (s *Store) Reclaim() error {
	s.reclaimMu.Lock()
	batch := s.takePending()
	s.reclaimMu.Unlock()
	return s.reclaim(batch)
}

// namedByReader reports whether a pinned snapshot of r's version names
// one of r's blocks. Call with pinMu held.
func (s *Store) namedByReader(r *retired) bool {
	for m := range s.pins {
		if m.Name == r.ver.name && m.Gen == r.ver.gen && m.names(r.left) {
			return true
		}
	}
	return false
}

// reclaim deletes a batch taken off the pending list and queues again
// what it could not delete. An entry a pinned snapshot names waits whole
// for the next batch. A node's keys go in one DeleteMany; when it fails
// they all stay, unless the node is no longer a member. Every key sent
// to delete leaves the cache. An entry with nothing left has its record
// cleared.
func (s *Store) reclaim(batch []*retired) error {
	var work, wait []*retired
	s.pinMu.Lock()
	for _, r := range batch {
		if s.namedByReader(r) {
			wait = append(wait, r)
		} else {
			work = append(work, r)
		}
	}
	s.pinMu.Unlock()

	byNode := make(map[int][]string)
	for _, r := range work {
		for _, b := range r.left {
			byNode[b.node] = append(byNode[b.node], b.key)
			if s.cache != nil {
				s.cache.invalidate(b.key)
			}
		}
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	errs := make([]error, len(nodes))
	fanOut(len(nodes), func(i int) {
		n := nodes[i]
		if err := deleteMany(s.cfg.Backend, n, byNode[n]); err != nil && s.MemberState(n) != NodeDead {
			errs[i] = fmt.Errorf("store: reclaim %d blocks on node %d: %w", len(byNode[n]), n, err)
		}
	})
	failed := make(map[int]bool)
	var firstErr error
	for i, err := range errs {
		if err != nil {
			failed[nodes[i]] = true
			if firstErr == nil {
				firstErr = err
			}
		}
	}

	var cleared []string
	for _, r := range work {
		before := len(r.left)
		left := r.left[:0]
		for _, b := range r.left {
			if failed[b.node] {
				left = append(left, b)
			}
		}
		r.left = left
		s.pendingBlocks.Add(int64(len(left) - before))
		if len(left) > 0 {
			wait = append(wait, r)
		} else {
			cleared = append(cleared, r.rec)
		}
	}
	if len(cleared) > 0 {
		// No fsync: a lost clear only repeats an idempotent delete after
		// the next open.
		_ = s.db.CommitNoSync(func(tx *meta.Tx) {
			for _, k := range cleared {
				tx.Delete(k)
			}
		})
	}
	s.reclaimMu.Lock()
	s.pending = append(s.pending, wait...)
	s.reclaimMu.Unlock()
	return firstErr
}
