package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"sync"
	"time"

	"repro/internal/meta"
)

// The background BlockFixer of §3 split into its two halves: a Scrubber
// that "periodically checks for lost or corrupted blocks" and a
// RepairManager whose goroutine pool drains the prioritized repair queue,
// rebuilding blocks (light local decode first) and rewriting them to live
// nodes. A decommission drains through the same queue (HDFS's one
// replication queue does the same): a block that still reads is copied
// off its draining node, one that does not is rebuilt.

// RepairManager owns the repair queue, its worker pool and every
// periodic pass that feeds it (the scrub walk, the rebalance pass, the
// health monitor's probe round): one Start brings the whole background
// plane up and one Stop brings it down.
type RepairManager struct {
	s       *Store
	q       *repairQueue
	workers int
	wg      sync.WaitGroup // the workers

	// The periodic passes registered through every, as loops ready to
	// launch. passWG counts the running ones; halt is closed by Stop.
	mu               sync.Mutex
	started, stopped bool
	passes           []func()
	halt             chan struct{}
	passWG           sync.WaitGroup
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
	r := &RepairManager{s: s, q: newRepairQueue(), workers: workers, halt: make(chan struct{})}
	it := s.db.Scan(qPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		r.q.push(v.(*repairRecord).item())
	}
	return r
}

// Start launches the worker pool and every registered pass. Each worker
// runs a two-stage pipeline: while stripe i's rebuilt blocks are being
// written back (and the manifest relocated), the worker is already
// fetching and decoding stripe i+1's sources. The queue item stays in-flight until its write-back lands, so
// Drain still means "damage gone", not "damage decoded". Idempotent.
func (r *RepairManager) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.stopped {
		return
	}
	r.started = true
	for w := 0; w < r.workers; w++ {
		r.wg.Add(1)
		go r.work()
	}
	for _, loop := range r.passes {
		r.passWG.Add(1)
		go loop()
	}
}

// work is one repair worker: it pops items until the queue closes and
// empties, overlapping each write-back with the next item's fetch.
func (r *RepairManager) work() {
	defer r.wg.Done()
	var scratch repairScratch
	var join func() // pending write-back of the previous item
	for {
		it, ok := r.q.pop()
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
	r.q.done()
}

// Stop halts every pass and waits for any in flight, then drains the
// queue and stops the workers, so whatever a pass enqueued before it
// halted is still repaired. Idempotent; every caller blocks until the
// in-flight passes and repairs finish. A stopped manager never starts.
func (r *RepairManager) Stop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.halt)
	}
	r.mu.Unlock()
	r.passWG.Wait()
	r.q.close()
	r.wg.Wait()
}

// every registers a periodic pass: run is called every period, never
// overlapping itself, from Start until Stop. A pass registered on a
// started manager starts at once; one registered on a stopped manager
// never runs.
func (r *RepairManager) every(period time.Duration, run func()) {
	loop := func() {
		defer r.passWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-r.halt:
				return
			case <-t.C:
				run()
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.passes = append(r.passes, loop)
	if r.started {
		r.passWG.Add(1)
		go loop()
	}
}

// Drain blocks until the queue is empty and every in-flight repair has
// finished — the test and CLI barrier between "scrub found damage" and
// "damage is gone".
func (r *RepairManager) Drain() { r.q.waitIdle() }

// enqueue admits one damaged stripe (merged into its pending item, if
// any) and persists the item as queued to the metadata plane. The record
// is committed without a sync: losing it in a crash only costs a
// rediscovery by the next scrub, which is not worth an fsync per enqueue.
func (r *RepairManager) enqueue(it repairItem) bool {
	it, ok := r.q.push(it)
	if ok {
		_ = r.s.db.CommitNoSync(func(tx *meta.Tx) { tx.Put(qKey(it.ref), recordOf(it)) })
	}
	return ok
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

// repairFetch re-probes a queued stripe and rebuilds what it lost — the
// read/decode half of a repair, paced by the repair limiter — returning
// the write-back step for the pipeline to overlap with the next fetch
// (nil when nothing needs writing). Every queued position is re-probed
// first, all at once, each into its slot of the worker's scratch slab:
// the damage may have healed (node revived) or grown since it was
// queued. A block that reads back with its CRC intact is reused, and
// written back from its slot when its node may not keep it (a drain);
// the rest are rebuilt into theirs.
func (r *RepairManager) repairFetch(it repairItem, scratch *repairScratch) func() {
	s := r.s
	si, ok := s.stripeSnapshot(it.ref)
	if !ok {
		return nil // object deleted or overwritten since it was queued
	}
	n := s.cfg.Codec.NStored()
	acct := &readAcct{}
	avail := make([]bool, n)
	for pos := 0; pos < n; pos++ {
		avail[pos] = s.Alive(si.Nodes[pos])
	}
	bufs := scratch.next(len(it.damaged), si.BlockLen)
	frameOf := func(pos int) []byte { return bufs[slices.Index(it.damaged, pos)] }
	stripe := make([][]byte, n)
	if !it.silent {
		s.readStripe(&si, stripe, it.damaged, avail, acct, s.repairLim, frameOf)
	}
	var copied, damaged []int
	for _, pos := range it.damaged {
		switch {
		case stripe[pos] == nil:
			avail[pos] = false
			damaged = append(damaged, pos)
		case !s.keeps(si.Nodes[pos]): // healed under us; reuse the bytes
			copy(frameOf(pos)[4:], stripe[pos]) // onto itself when the backend read into the slot
			copied = append(copied, pos)
		}
	}
	var rebuilt []int
	if len(damaged) > 0 {
		// On an unrecoverable stripe the batched decode still rebuilds what
		// it can before failing; persist that partial progress — every block
		// written back moves the stripe away from the data-loss edge. Scrub
		// re-reports whatever is still missing.
		_ = s.reconstructPositions(&si, stripe, damaged, avail, acct, s.repairLim,
			func(pos int) []byte { return frameOf(pos)[4:] })
		for _, pos := range damaged {
			if stripe[pos] != nil {
				rebuilt = append(rebuilt, pos)
			}
		}
	}
	s.m.mergeRepair(acct)
	if len(copied) == 0 && len(rebuilt) == 0 {
		return nil
	}
	return func() { s.writeRepaired(it.ref, si, stripe, copied, rebuilt, frameOf) }
}

// replacement picks the node a relocation moves stripe position pos to:
// placeable, and keeping the rack rule against the positions on live
// nodes.
func (s *Store) replacement(si *stripeInfo, pos int) int {
	members := s.Members()
	cur := append([]int(nil), si.Nodes...)
	for q, nd := range cur {
		if nd < 0 || nd >= len(members) || !members[nd].Alive {
			cur[q] = -1
		}
	}
	return s.placer.pickReplacement(si.Seq, pos, cur, members)
}

// writeRepaired is the write-back half of a repair: place each copied
// or rebuilt block on a node that keeps it (re-placing off a dead or
// draining one under the rack rule), stamp its frame's CRC in place and
// relocate it there. A copy counts as rebalanced, a rebuild as repaired.
// The replaced replica is left to the reclaimer, which retries until the
// old node answers: a revived node cannot resurface it (HDFS
// re-registration invalidates it the same way).
func (s *Store) writeRepaired(ref stripeRef, si stripeInfo, stripe [][]byte, copied, rebuilt []int, frameOf func(pos int) []byte) {
	for i, pos := range append(copied, rebuilt...) {
		node := si.Nodes[pos]
		if !s.keeps(node) {
			if node = s.replacement(&si, pos); node < 0 {
				continue // nowhere to go; the next scrub or drain pass retries
			}
			si.Nodes[pos] = node
		}
		frame := frameOf(pos)
		binary.LittleEndian.PutUint32(frame, crc32.Checksum(frame[4:], castagnoli))
		if !s.relocate(ref, pos, node, frame) {
			continue
		}
		if i < len(copied) {
			s.m.rebalancedBlocks.Add(1)
			s.m.rebalancedBytes.Add(int64(len(stripe[pos])))
		} else {
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
}

// NewScrubber builds a scrubber feeding the manager's queue. A period > 0
// registers the full walk (ScrubOnce) as one of the manager's passes, run
// every period between its Start and Stop; 0 leaves every walk to the
// caller.
func NewScrubber(s *Store, rm *RepairManager, period time.Duration) *Scrubber {
	sc := &Scrubber{s: s, rm: rm}
	if period > 0 {
		rm.every(period, func() { sc.ScrubOnce() })
	}
	return sc
}

// ScrubOnce walks every stripe synchronously and returns what it found.
// The walk streams (eachStripe), so its memory stays flat as the
// namespace grows.
func (sc *Scrubber) ScrubOnce() ScrubReport {
	var rep ScrubReport
	sc.s.eachStripe(func(obj *objectInfo, i int) bool {
		miss, corr, enq := sc.scrubStripe(stripeRef{name: obj.Name, gen: obj.Gen, idx: i})
		rep.Stripes++
		rep.Missing += miss
		rep.Corrupt += corr
		if enq {
			rep.Enqueued++
		}
		return true
	})
	return rep
}

// ScrubPresence walks every stripe's manifest and enqueues stripes with
// blocks on dead nodes — the node-failure detection path of the §3
// BlockFixer (HDFS learns of a dead DataNode from missed heartbeats, not
// from reading blocks). No backend reads and no CRC checks happen, so a
// node kill turns into queued repairs at manifest-walk speed; silent
// corruption and deleted blocks on live nodes are ScrubOnce's job.
func (sc *Scrubber) ScrubPresence() ScrubReport { return sc.rm.presence(nil) }

// presence is the one manifest-only walk, behind ScrubPresence, the
// health monitor's deaths and revivals, and a rebalance pass's drains:
// every stripe with a block on a node that the walk's liveness snapshot
// has down, or on a live node that recheck names (nil names none), is
// enqueued with those blocks as its damage. A stripe is never queued
// without its losses, and its erasures are those losses alone, so a
// drain or a revival re-check queues behind every stripe that lost a
// block. The repair worker re-probes each one — a block that reads back
// with its CRC intact is reused, not rebuilt. Missing counts only blocks
// on down nodes.
func (r *RepairManager) presence(recheck func(node int) bool) ScrubReport {
	var rep ScrubReport
	s := r.s
	members := s.Members()
	n := s.cfg.Codec.NStored()
	s.eachStripe(func(obj *objectInfo, idx int) bool {
		// Inspected in place: a stale view only mis-ages a repair item,
		// which carries the generation, and the worker re-probes.
		si := &obj.Stripes[idx]
		rep.Stripes++
		avail := make([]bool, n)
		var damaged []int
		down := 0
		for pos, node := range si.Nodes {
			switch {
			case node < 0 || node >= len(members) || !members[node].Alive:
				down++
				damaged = append(damaged, pos)
			case recheck != nil && recheck(node):
				damaged = append(damaged, pos)
			default:
				avail[pos] = true
			}
		}
		if len(damaged) == 0 {
			return true
		}
		rep.Missing += down
		if r.enqueue(repairItem{
			ref:      stripeRef{name: obj.Name, gen: obj.Gen, idx: idx},
			damaged:  damaged,
			erasures: down,
			light:    s.lightRepairable(damaged, avail),
		}) {
			rep.Enqueued++
		}
		return true
	})
	s.m.missingFound.Add(int64(rep.Missing))
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
	frames := frameSet{s: s, stripe: stripe}
	defer frames.release()
	avail := make([]bool, n)
	all := make([]int, n)
	for pos := range all {
		avail[pos], all[pos] = true, pos
	}
	var damaged []int
	silent := false
	for pos, err := range s.readStripe(&si, stripe, all, avail, acct, s.scrubLim, frames.frame) {
		switch {
		case err == nil:
			continue
		case errors.Is(err, ErrCorrupt):
			corrupt++
		default:
			missing++
		}
		damaged = append(damaged, pos)
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
