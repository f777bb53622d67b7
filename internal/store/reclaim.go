package store

import (
	"fmt"
	"sort"

	"repro/internal/meta"
)

// Reclamation is the one way a block leaves a node. Retiring a version (an
// overwrite, a Delete, a failed PUT's rollback) and relocating a block (a
// repair or rebalance moving it) delete nothing on their own: the commit
// that retires or splices stages a record naming what leaves (t/ or r/,
// see meta.go), so a block is named durably before anything stops naming
// it, at no extra fsync. A retired version then joins one pending list,
// and the goroutine whose retire brings reclaimBatch fresh block keys into
// it reclaims the whole list inline: the keys grouped by node, one
// DeleteMany per node through fanOut, then one commit-no-sync clearing the
// record of every entry wholly gone. A batch closes at a fixed count of
// keys, never on a timer, so one client at a fixed seed makes the same
// requests on every run. A relocation reclaims the copy it replaced the
// same way, at once (see relocate).
//
// A version a streaming read still pins waits in the list: a batch skips
// it until its last unpin. An entry with a block on a node that refused
// the delete waits in the list for the next batch, unless the node has
// left the membership. Open queues every record it finds and does no I/O;
// Close drains the list before it closes the plane.

// reclaimBatch is how many freshly retired block keys close a batch: 16
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
	// obj is the retired version; nil for a relocated copy, which no
	// reader pins and no cache entry names (relocate dropped it).
	obj *objectInfo
	// left holds the entry's blocks not known to be deleted yet.
	left []blockRef
	// pinned records that a reader held the version when it was retired:
	// its cache entries are then dropped when it is reclaimed, not at
	// retire, so the reader keeps hitting its own generation.
	pinned bool
}

// retiredOf lists every placed block of obj, dead nodes included
// (backends outlive simulated node failures).
func retiredOf(obj *objectInfo) *retired {
	r := &retired{rec: tombKey(obj), obj: obj}
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

// retire queues a replaced, deleted or rolled-back version whose
// tombstone the caller has committed, and reclaims the whole list when
// that closes a batch. An unpinned version's cache entries are dropped
// here: no read can reach its generation any more.
func (s *Store) retire(obj *objectInfo) {
	r := retiredOf(obj)
	s.pinMu.Lock()
	r.pinned = s.pins[verKey{obj.Name, obj.Gen}] > 0
	s.pinMu.Unlock()
	if !r.pinned && s.cache != nil {
		s.cache.invalidateObject(obj)
	}
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

// replacement picks the node a relocation moves stripe position pos to:
// placeable, keeping the rack rule against the positions on live nodes,
// and holding no copy of the block that awaits deletion.
func (s *Store) replacement(si *stripeInfo, pos int) int {
	alive := s.aliveSnapshot()
	cur := append([]int(nil), si.Nodes...)
	for q, nd := range cur {
		if nd < 0 || nd >= len(alive) || !alive[nd] {
			cur[q] = -1
		}
	}
	eligible := s.placeableSnapshot()
	s.reclaimMu.Lock()
	for n := range eligible {
		eligible[n] = eligible[n] && s.deleting[blockRef{n, si.Keys[pos]}] == 0
	}
	s.reclaimMu.Unlock()
	return s.placer.pickReplacement(si.Seq, pos, cur, eligible)
}

// drop takes one count of b off m, forgetting b at zero.
func drop(m map[blockRef]int, b blockRef) {
	if m[b]--; m[b] <= 0 {
		delete(m, b)
	}
}

// deletesOn counts node's relocated copies that await deletion.
func (s *Store) deletesOn(node int) (n int) {
	s.reclaimMu.Lock()
	defer s.reclaimMu.Unlock()
	for b := range s.deleting {
		if b.node == node {
			n++
		}
	}
	return n
}

// Reclaim deletes now every block the pending list holds, instead of
// waiting for the batch it would close with. It returns the first delete
// that failed, in which case those blocks stay pending; a version a
// reader still pins stays pending without an error.
func (s *Store) Reclaim() error {
	s.reclaimMu.Lock()
	batch := s.takePending()
	s.reclaimMu.Unlock()
	return s.reclaim(batch)
}

// reclaim deletes a batch taken off the pending list and queues again
// what it could not delete. A node's keys go in one DeleteMany; when it
// fails they all stay, unless the node is no longer a member. An entry
// with nothing left has its record cleared.
func (s *Store) reclaim(batch []*retired) error {
	var work, wait []*retired
	s.reclaimMu.Lock()
	s.pinMu.Lock()
	for _, r := range batch {
		if r.obj == nil && s.landing[r.left[0]] > 0 || r.obj != nil && s.pins[verKey{r.obj.Name, r.obj.Gen}] > 0 {
			wait = append(wait, r)
		} else {
			work = append(work, r)
		}
	}
	s.pinMu.Unlock()
	s.reclaimMu.Unlock()

	byNode := make(map[int][]string)
	for _, r := range work {
		if r.pinned && s.cache != nil {
			s.cache.invalidateObject(r.obj)
		}
		r.pinned = false
		for _, b := range r.left {
			byNode[b.node] = append(byNode[b.node], b.key)
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
	var freed []blockRef // relocated copies now gone
	for _, r := range work {
		before := len(r.left)
		left := r.left[:0]
		for _, b := range r.left {
			if failed[b.node] {
				left = append(left, b)
			} else if r.obj == nil {
				freed = append(freed, b)
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
		// the next open. A relocation that lands a freed pair again commits
		// with an fsync after this record, so it makes the clear durable.
		_ = s.db.CommitNoSync(func(tx *meta.Tx) {
			for _, k := range cleared {
				tx.Delete(k)
			}
		})
	}
	s.reclaimMu.Lock()
	for _, b := range freed {
		drop(s.deleting, b)
	}
	s.pending = append(s.pending, wait...)
	s.reclaimMu.Unlock()
	return firstErr
}
