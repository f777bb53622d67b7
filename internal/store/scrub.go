package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/meta"
)

// The background BlockFixer of §3 split into its two halves: a Scrubber
// that "periodically checks for lost or corrupted blocks" and a
// RepairManager whose goroutine pool drains the prioritized repair queue,
// rebuilding blocks (light local decode first) and rewriting them to live
// nodes.

// RepairManager owns the repair queue and its worker pool.
type RepairManager struct {
	s       *Store
	q       *repairQueue
	workers int

	startOnce sync.Once
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// NewRepairManager builds a manager with the given pool size (≤0 means 2
// workers, mirroring the throttled production fixer). Repair items the
// previous process persisted but never finished are re-queued, so damage
// found before a crash is repaired after it without waiting for the next
// scrub.
func NewRepairManager(s *Store, workers int) *RepairManager {
	if workers <= 0 {
		workers = 2
	}
	r := &RepairManager{s: s, q: newRepairQueue(), workers: workers}
	it := s.db.Scan(qPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		r.q.Push(v.(*repairRecord).item())
	}
	return r
}

// Start launches the worker pool. Each worker runs a two-stage pipeline
// mirroring the PR 3 stream engine: while stripe i's rebuilt blocks are
// being written back (and the manifest relocated), the worker is already
// fetching and decoding stripe i+1's sources. The queue item stays
// in-flight until its write-back lands, so Drain still means "damage
// gone", not "damage decoded". Idempotent.
func (r *RepairManager) Start() {
	r.startOnce.Do(func() {
		for w := 0; w < r.workers; w++ {
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				var scratch repairScratch
				var join func() // pending write-back of the previous item
				for {
					it, ok := r.q.Pop()
					if !ok {
						break
					}
					write := r.repairFetch(it, &scratch)
					if join != nil {
						join() // write-backs are serialized per worker
					}
					join = r.asyncWrite(it, write)
				}
				if join != nil {
					join()
				}
			}()
		}
	})
}

// asyncWrite runs a repair write-back concurrently with the worker's
// next fetch, marking the queue item done only once the blocks are
// durable. The returned join blocks until then. A nil write (stripe
// healed, deleted or unrecoverable — the common no-op cases) completes
// inline without spawning anything.
func (r *RepairManager) asyncWrite(it repairItem, write func()) func() {
	if write == nil {
		r.finish(it)
		return nil
	}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		write()
		r.finish(it)
	}()
	return func() { <-ch }
}

// finish retires a processed queue item: its persisted record is removed
// (no-sync — the record is advisory) and the queue's in-flight count
// drops.
func (r *RepairManager) finish(it repairItem) {
	_ = r.s.db.CommitNoSync(func(tx *meta.Tx) { tx.Delete(qKey(it.ref)) })
	r.q.Done()
}

// Stop drains the queue and stops the workers. Idempotent; blocks until
// in-flight repairs finish.
func (r *RepairManager) Stop() {
	r.stopOnce.Do(func() {
		r.q.Close()
		r.wg.Wait()
	})
}

// Drain blocks until the queue is empty and every in-flight repair has
// finished — the test and CLI barrier between "scrub found damage" and
// "damage is gone".
func (r *RepairManager) Drain() { r.q.WaitIdle() }

// Pending returns the queued repair count.
func (r *RepairManager) Pending() int { return r.q.Len() }

// enqueue admits one damaged stripe (deduplicated by the queue) and
// persists it to the metadata plane. The record is committed without a
// sync: losing it in a crash only costs a rediscovery by the next scrub,
// which is not worth an fsync per enqueue.
func (r *RepairManager) enqueue(it repairItem) bool {
	if !r.q.Push(it) {
		return false
	}
	_ = r.s.db.CommitNoSync(func(tx *meta.Tx) { tx.Put(qKey(it.ref), recordOf(it)) })
	return true
}

// repairScratch is one worker's pair of reusable framed block slabs.
// Rebuilt payloads are decoded straight into a slab's payload windows and
// written back from the same bytes (CRC stamped in place) — zero copies
// and zero steady-state allocation inside a repair. Two slabs ping-pong
// because the write-back of stripe i overlaps the decode of stripe i+1;
// write-backs themselves are serialized per worker, so slab i is free
// again by the time stripe i+2 decodes.
type repairScratch struct {
	slabs [2][]byte
	turn  int
}

// next returns n framed block buffers of payloadLen bytes carved from
// the worker's next slab, growing it as needed.
func (rs *repairScratch) next(n, payloadLen int) [][]byte {
	need := n * (4 + payloadLen)
	slab := rs.slabs[rs.turn]
	if cap(slab) < need {
		slab = make([]byte, need)
		rs.slabs[rs.turn] = slab
	}
	rs.turn ^= 1
	return carveFramedBufs(slab[:need], n, payloadLen)
}

// repairFetch re-probes a damaged stripe and rebuilds its blocks — the
// read/decode half of a repair, paced by the repair limiter — returning
// the write-back step for the pipeline to overlap with the next fetch
// (nil when nothing needs writing). The stripe is re-probed first: the
// damage may have healed (node revived) or grown since scrub time.
// Rebuilt payloads land in the worker's scratch slab, framed.
func (r *RepairManager) repairFetch(it repairItem, scratch *repairScratch) func() {
	s := r.s
	si, ok := s.stripeSnapshot(it.ref)
	if !ok {
		return nil // object deleted since scrub
	}
	n := s.cfg.Codec.NStored()
	acct := &readAcct{}
	avail := make([]bool, n)
	for pos := 0; pos < n; pos++ {
		avail[pos] = s.Alive(si.Nodes[pos])
	}
	stripe := make([][]byte, n)
	var damaged []int
	for _, pos := range it.damaged {
		if !it.silent {
			if p, err := s.readBlockPayload(&si, pos, acct, s.repairLim, nil); err == nil {
				stripe[pos] = p // healed under us; reuse the bytes
				continue
			}
		}
		avail[pos] = false
		damaged = append(damaged, pos)
	}
	if len(damaged) == 0 {
		s.m.mergeRepair(acct)
		return nil
	}
	bufs := scratch.next(len(damaged), si.BlockLen)
	slotOf := func(pos int) int {
		for di, p := range damaged {
			if p == pos {
				return di
			}
		}
		return -1
	}
	// On an unrecoverable stripe the batched decode still rebuilds what
	// it can before failing; persist that partial progress — every block
	// written back moves the stripe away from the data-loss edge. Scrub
	// re-reports whatever is still missing.
	_ = s.reconstructPositions(&si, stripe, damaged, avail, acct, s.repairLim,
		func(pos int) []byte { return bufs[slotOf(pos)][4:] })
	s.m.mergeRepair(acct)
	var rebuilt []int
	for _, pos := range damaged {
		if stripe[pos] != nil {
			rebuilt = append(rebuilt, pos)
		}
	}
	if len(rebuilt) == 0 {
		return nil
	}
	return func() {
		s.writeRepaired(it.ref, si, stripe, rebuilt, func(pos int) []byte { return bufs[slotOf(pos)] })
	}
}

// writeRepaired is the write-back half of a repair: place each rebuilt
// block on a live node (re-placing off dead ones under the rack rule),
// stamp its frame's CRC in place and relocate it there. A re-placement
// leaves its stale replica to the reclaimer, which retries until the dead
// node answers: a revived node cannot resurface it (HDFS re-registration
// invalidates it the same way).
func (s *Store) writeRepaired(ref stripeRef, si stripeInfo, stripe [][]byte, rebuilt []int, frameOf func(pos int) []byte) {
	for _, pos := range rebuilt {
		node, key := si.Nodes[pos], si.Keys[pos]
		if !s.Alive(node) {
			// Re-place on a live placeable node (never a drainer — repair
			// must not refill a node mid-decommission).
			if node = s.replacement(&si, pos); node < 0 {
				continue // no live node; nothing to write to
			}
			si.Nodes[pos] = node
		}
		frame := frameOf(pos)
		binary.LittleEndian.PutUint32(frame, crc32.Checksum(frame[4:], castagnoli))
		if s.relocate(ref, pos, node, key, frame) {
			s.m.repairedBlocks.Add(1)
			s.m.repairedBytes.Add(int64(len(stripe[pos])))
		}
	}
}

// ScrubReport summarizes one full scrub pass.
type ScrubReport struct {
	// Stripes is how many stripes were checked.
	Stripes int
	// Missing and Corrupt count damaged blocks found.
	Missing, Corrupt int
	// Enqueued is how many stripes were handed to the repair queue.
	Enqueued int
}

// Scrubber walks every stripe, verifying presence, per-block CRCs and the
// codec's group syndromes, and enqueues damage for repair.
type Scrubber struct {
	s  *Store
	rm *RepairManager
	// Interval is the background walk period.
	interval time.Duration
	loop     periodic
}

// NewScrubber builds a scrubber feeding the manager's queue.
func NewScrubber(s *Store, rm *RepairManager, interval time.Duration) *Scrubber {
	if interval <= 0 {
		interval = time.Second
	}
	return &Scrubber{s: s, rm: rm, interval: interval}
}

// Start launches the periodic background walk. Idempotent.
func (sc *Scrubber) Start() { sc.loop.start(sc.interval, func() { sc.ScrubOnce() }) }

// Stop halts the background walk. Idempotent; blocks until an in-flight
// walk finishes.
func (sc *Scrubber) Stop() { sc.loop.halt() }

// ScrubOnce walks every stripe synchronously and returns what it found.
// The walk streams through the metadata plane's prefix iterator — one
// shard's manifests in memory at a time, never a global snapshot — so
// scrub cost stays flat as the namespace grows.
func (sc *Scrubber) ScrubOnce() ScrubReport {
	var rep ScrubReport
	it := sc.s.db.Scan(objPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		obj := v.(*objectInfo)
		for i := range obj.Stripes {
			ref := stripeRef{name: obj.Name, gen: obj.Gen, idx: i}
			miss, corr, enq := sc.scrubStripe(ref)
			rep.Stripes++
			rep.Missing += miss
			rep.Corrupt += corr
			if enq {
				rep.Enqueued++
			}
		}
	}
	return rep
}

// ScrubPresence walks every stripe's manifest and enqueues stripes with
// blocks on dead nodes — the node-failure detection path of the §3
// BlockFixer (HDFS learns of a dead DataNode from missed heartbeats, not
// from reading blocks). No backend reads and no CRC checks happen, so a
// node kill turns into queued repairs at manifest-walk speed; silent
// corruption and deleted blocks on live nodes are ScrubOnce's job.
func (sc *Scrubber) ScrubPresence() ScrubReport {
	var rep ScrubReport
	s := sc.s
	n := s.cfg.Codec.NStored()
	it := s.db.Scan(objPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		obj := v.(*objectInfo)
		for idx := range obj.Stripes {
			// The iterator's manifests are immutable (copy-on-write plane),
			// so the stripe can be inspected directly — no re-lookup, no
			// copy. A stale view only mis-ages a repair item; the queue item
			// carries the generation and the repair re-probes.
			si := &obj.Stripes[idx]
			rep.Stripes++
			avail := make([]bool, n)
			var damaged []int
			for pos := 0; pos < n; pos++ {
				if s.Alive(si.Nodes[pos]) {
					avail[pos] = true
				} else {
					damaged = append(damaged, pos)
				}
			}
			if len(damaged) == 0 {
				continue
			}
			rep.Missing += len(damaged)
			s.m.missingFound.Add(int64(len(damaged)))
			if sc.rm.enqueue(repairItem{
				ref:      stripeRef{name: obj.Name, gen: obj.Gen, idx: idx},
				damaged:  damaged,
				erasures: len(damaged),
				light:    s.lightRepairable(damaged, avail),
			}) {
				rep.Enqueued++
			}
		}
	}
	return rep
}

// scrubStripe checks one stripe: every block is read and CRC-verified;
// full stripes additionally pass through the codec's syndrome scan
// (GroupSyndrome via LocateCorruption), which catches corruption whose
// checksum was rewritten to match. Damage is enqueued with its risk
// priority.
func (sc *Scrubber) scrubStripe(ref stripeRef) (missing, corrupt int, enqueued bool) {
	s := sc.s
	si, ok := s.stripeSnapshot(ref)
	if !ok {
		return 0, 0, false
	}
	n := s.cfg.Codec.NStored()
	acct := &readAcct{}
	stripe := make([][]byte, n)
	avail := make([]bool, n)
	var damaged []int
	silent := false
	for pos := 0; pos < n; pos++ {
		p, err := s.readBlockPayload(&si, pos, acct, s.scrubLim, nil)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				corrupt++
			} else {
				missing++
			}
			damaged = append(damaged, pos)
			continue
		}
		stripe[pos] = p
		avail[pos] = true
	}
	if len(damaged) == 0 {
		// Full stripe: group syndromes localize any block whose payload
		// and CRC were both silently rewritten.
		if bad, err := s.cfg.Codec.LocateCorruption(stripe); err == nil && len(bad) > 0 {
			for _, pos := range bad {
				avail[pos] = false
			}
			damaged = bad
			corrupt += len(bad)
			silent = true
		}
	}
	s.m.scrubbedStripes.Add(1)
	s.m.mergeScrub(acct)
	if len(damaged) == 0 {
		return 0, 0, false
	}
	s.m.missingFound.Add(int64(missing))
	s.m.corruptFound.Add(int64(corrupt))
	enqueued = sc.rm.enqueue(repairItem{
		ref:      ref,
		damaged:  damaged,
		erasures: len(damaged),
		light:    s.lightRepairable(damaged, avail),
		silent:   silent,
	})
	return missing, corrupt, enqueued
}
