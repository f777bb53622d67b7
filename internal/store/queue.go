package store

import (
	"container/heap"
	"slices"
	"sync"
)

// repairItem is one damaged stripe queued for the BlockFixer.
type repairItem struct {
	ref stripeRef
	// damaged lists the stripe positions needing a rewrite (missing or
	// corrupt at scrub time; the worker re-probes before repairing).
	damaged []int
	// erasures is the risk key: how many blocks the stripe is down — on
	// nodes that are down, or unreadable when a full scrub queued it. A
	// Xorbas stripe at 4 erasures is one loss from data loss. Blocks
	// queued only to move (a drain) or to re-check (a revival) add
	// none, so such an item queues behind every stripe that lost one.
	erasures int
	// light is true when every damaged block had a light repair plan at
	// enqueue time.
	light bool
	// silent marks damage found by syndrome scan rather than read/CRC
	// failure: the blocks read back fine, so the worker must not mistake
	// a successful probe for healing.
	silent bool
	seq    int64 // FIFO tiebreak
}

// repairQueue is the §3 BlockFixer policy as a priority queue: stripes
// closer to data loss first; at equal risk, light repairs before heavy
// (they finish faster and free the queue); then FIFO. pop blocks until an
// item arrives or the queue closes. Safe for concurrent use.
type repairQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pending  repairHeap // one item per stripe
	inFlight int        // popped but not yet done: waitIdle's other half
	closed   bool
	seq      int64
}

func newRepairQueue() *repairQueue {
	q := &repairQueue{pending: repairHeap{at: make(map[stripeRef]int)}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a damaged stripe. A stripe already pending absorbs the
// item instead (absorb), so no damage found later is lost to the one
// queued first. It returns the stripe's item as now queued, and false
// when the queue is closed or the item brought nothing new.
func (q *repairQueue) push(it repairItem) (repairItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return it, false
	}
	if i, ok := q.pending.at[it.ref]; ok {
		return q.pending.absorb(i, it)
	}
	q.seq++
	it.seq = q.seq
	heap.Push(&q.pending, it)
	// Broadcast, not Signal: the one woken waiter could be a waitIdle
	// caller rather than a pop, stranding the item.
	q.cond.Broadcast()
	return it, true
}

// pop blocks until an item is available or the queue closes (ok=false).
func (q *repairQueue) pop() (repairItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.pending.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.pending.Len() == 0 {
		return repairItem{}, false
	}
	it := heap.Pop(&q.pending).(repairItem)
	q.inFlight++
	return it, true
}

// done marks a popped item fully processed.
func (q *repairQueue) done() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inFlight--
	q.cond.Broadcast()
}

// waitIdle blocks until no items are pending or in flight.
func (q *repairQueue) waitIdle() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.pending.Len() > 0 || q.inFlight > 0 {
		q.cond.Wait()
	}
}

// len returns the number of pending items.
func (q *repairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending.Len()
}

// close wakes all blocked pops; subsequent pushes are dropped.
func (q *repairQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// repairHeap orders items by (erasures desc, light first, seq asc), and
// tracks where each pending stripe sits so that absorb can find it.
type repairHeap struct {
	items []repairItem
	at    map[stripeRef]int
}

func (h repairHeap) Len() int { return len(h.items) }

func (h repairHeap) Less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.erasures != b.erasures {
		return a.erasures > b.erasures
	}
	if a.light != b.light {
		return a.light
	}
	return a.seq < b.seq
}

func (h repairHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.at[h.items[i].ref], h.at[h.items[j].ref] = i, j
}

func (h *repairHeap) Push(x any) {
	it := x.(repairItem)
	h.at[it.ref] = len(h.items)
	h.items = append(h.items, it)
}

func (h *repairHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	delete(h.at, it.ref)
	return it
}

// absorb merges it into the pending item at index i: the damage becomes
// the union of both, the risk the higher erasures (light only when both
// were), and silent sticks, since a silent block must not be re-probed.
// The item keeps its FIFO place and moves up the queue if its risk rose.
// It reports false when it added no position, risk or silence.
func (h *repairHeap) absorb(i int, it repairItem) (repairItem, bool) {
	p, was := &h.items[i], h.items[i]
	for _, pos := range it.damaged {
		if !slices.Contains(p.damaged, pos) {
			p.damaged = append(p.damaged, pos)
		}
	}
	p.erasures = max(p.erasures, it.erasures)
	p.light = p.light && it.light
	p.silent = p.silent || it.silent
	merged := *p
	heap.Fix(h, i)
	return merged, len(merged.damaged) > len(was.damaged) || merged.erasures > was.erasures || merged.silent != was.silent
}
