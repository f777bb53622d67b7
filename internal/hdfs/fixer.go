package hdfs

import (
	"repro/internal/cluster"
)

// KillNode terminates a DataNode: every block it stored is marked lost
// and the BlockFixer's next scan will dispatch repair jobs (§3.1.2).
func (fs *FS) KillNode(node int) {
	fs.Cl.Kill(node)
	for _, s := range fs.stripes {
		for pos, nd := range s.Node {
			if nd == node && !s.Lost[pos] {
				s.Lost[pos] = true
				fs.pendingLost = append(fs.pendingLost, blockRef{s, pos})
			}
		}
	}
	fs.armFixer()
}

// RestartNode resolves a transient failure (§1.1: 90% of failure events
// are transient): the node returns with its blocks intact, so any of its
// blocks not yet re-created elsewhere become available again and pending
// repairs for them are dropped at the next scan.
func (fs *FS) RestartNode(node int) {
	fs.Cl.Restart(node)
	for _, s := range fs.stripes {
		for pos, nd := range s.Node {
			if nd == node && s.Lost[pos] {
				s.Lost[pos] = false
			}
		}
	}
}

// LoseBlock marks a single stored block as lost or corrupted without
// terminating its DataNode — the §5.2.4 "simulated block losses" and the
// corrupted-block case the BlockFixer periodically scans for (§3). The
// next scan dispatches its repair.
func (fs *FS) LoseBlock(s *Stripe, pos int) {
	if pos < 0 || pos >= len(s.Node) || !s.Available(pos) {
		return
	}
	s.Lost[pos] = true
	fs.pendingLost = append(fs.pendingLost, blockRef{s, pos})
	fs.armFixer()
}

// armFixer schedules the next BlockFixer scan if one isn't pending.
func (fs *FS) armFixer() {
	if fs.fixerArmed || len(fs.pendingLost) == 0 {
		return
	}
	fs.fixerArmed = true
	fs.Cl.Eng.Schedule(fs.Cfg.FixerScanSec, fs.fixerScan)
}

// fixerScan is one periodic BlockFixer pass: it collects the lost blocks
// observed since the last pass and dispatches one MapReduce repair job
// with a map task per missing block.
func (fs *FS) fixerScan() {
	fs.fixerArmed = false
	batch := fs.pendingLost
	fs.pendingLost = nil
	var tasks []blockRef
	for _, ref := range batch {
		if ref.s.Lost[ref.pos] {
			tasks = append(tasks, ref)
		}
	}
	if len(tasks) == 0 {
		return
	}
	job := &Job{Name: "blockfixer", MaxParallel: fs.Cfg.RepairMaxParallel}
	for _, ref := range tasks {
		ref := ref
		job.AddTask(&Task{PreferredNode: -1, Run: func(node int, finish func()) {
			fs.runRepairTask(ref, node, finish)
		}})
	}
	fs.Tracker.Submit(job)
	fs.armFixer() // new losses may have accumulated meanwhile
}

// runRepairTask is one repair map task: launch overhead, parallel streams
// from the source blocks, decode CPU, write of the rebuilt block to a
// fresh DataNode (§3.1.2).
func (fs *FS) runRepairTask(ref blockRef, node int, finish func()) {
	if fs.firstRepairLaunch < 0 {
		fs.firstRepairLaunch = fs.Cl.Eng.Now()
	}
	endTask := func() {
		fs.lastRepairEnd = fs.Cl.Eng.Now()
		finish()
	}
	fs.Cl.Eng.Schedule(fs.Cfg.TaskLaunchSec, func() {
		if !ref.s.Lost[ref.pos] {
			endTask() // already repaired by a racing task
			return
		}
		exists, avail := ref.s.masks()
		plan, err := fs.Scheme.PlanRepair(ref.pos, exists, avail, fs.Cfg.DeployedReads)
		if err != nil {
			fs.counters.Unrecoverable++
			endTask()
			return
		}
		fs.streamBlocks(ref.s, plan.Reads, node, func() {
			decode := fs.Cfg.DecodeCPUSecPerRead * float64(len(plan.Reads))
			fs.Cl.AddCPU(decode, 1)
			fs.Cl.Eng.Schedule(decode, func() {
				land := func(at int) {
					ref.s.Lost[ref.pos] = false
					ref.s.Node[ref.pos] = at
					fs.counters.BlocksRepaired++
					if plan.Light {
						fs.counters.LightRepairs++
					} else {
						fs.counters.HeavyRepairs++
					}
					endTask()
				}
				dest := fs.pickNewHome(ref.s, node)
				if err := fs.Cl.Transfer(node, dest, fs.Cfg.BlockSizeBytes, cluster.TagWrite, func() { land(dest) }); err != nil {
					land(node) // destination died mid-repair: store locally
				}
			})
		})
	})
}

// streamBlocks opens parallel read streams from every source position to
// the task node and calls done when all arrive. Each stream counts as
// HDFS bytes read.
func (fs *FS) streamBlocks(s *Stripe, reads []int, node int, done func()) {
	if len(reads) == 0 {
		fs.Cl.Eng.Schedule(0, done)
		return
	}
	remaining := len(reads)
	for _, pos := range reads {
		src := s.Node[pos]
		fs.counters.HDFSBytesRead += fs.Cfg.BlockSizeBytes
		complete := func() {
			remaining--
			if remaining == 0 {
				done()
			}
		}
		if err := fs.Cl.Transfer(src, node, fs.Cfg.BlockSizeBytes, cluster.TagRead, complete); err != nil {
			// Source died between planning and streaming; the stream
			// yields nothing — account the miss and move on. The decoder
			// will be rerun by a later scan if the block stays lost.
			complete()
		}
	}
}

// pickNewHome chooses a live node for a rebuilt block, avoiding the
// stripe's other blocks (placement policy) and preferring not to keep it
// on the task node.
func (fs *FS) pickNewHome(s *Stripe, taskNode int) int {
	onStripe := make(map[int]bool)
	for p, nd := range s.Node {
		if nd >= 0 && !s.Lost[p] {
			onStripe[nd] = true
		}
	}
	pool := fs.Cl.LiveNodes()
	// Deterministic random probe.
	for tries := 0; tries < 4*len(pool); tries++ {
		cand := pool[fs.rng.Intn(len(pool))]
		if cand != taskNode && !onStripe[cand] {
			return cand
		}
	}
	for _, cand := range pool {
		if !onStripe[cand] {
			return cand
		}
	}
	return taskNode
}

// ReadBlock models a client (e.g. a WordCount map task on the given
// node) reading stripe position pos. Present blocks transfer directly
// (free if local). Missing blocks take the degraded-read path (§1.1):
// stall for the degraded timeout, then reconstruct on the fly — reading
// the plan's blocks and decoding — without writing anything back.
// done(degraded) fires when the bytes are available.
func (fs *FS) ReadBlock(s *Stripe, pos, node int, done func(degraded bool)) {
	if s.Available(pos) {
		src := s.Node[pos]
		fs.counters.HDFSBytesRead += fs.Cfg.BlockSizeBytes
		if src == node {
			// Data-local read: HDFS counts the bytes, the network moves
			// nothing.
			fs.Cl.Eng.Schedule(0, func() { done(false) })
			return
		}
		if err := fs.Cl.Transfer(src, node, fs.Cfg.BlockSizeBytes, cluster.TagRead, func() { done(false) }); err != nil {
			fs.degradedRead(s, pos, node, done)
		}
		return
	}
	fs.degradedRead(s, pos, node, done)
}

func (fs *FS) degradedRead(s *Stripe, pos, node int, done func(degraded bool)) {
	fs.Cl.Eng.Schedule(fs.Cfg.DegradedTimeoutSec, func() {
		exists, avail := s.masks()
		plan, err := fs.Scheme.PlanRepair(pos, exists, avail, fs.Cfg.DeployedReads)
		if err != nil {
			// Data loss: the read fails permanently; report completion so
			// the job can account the failure rather than hang.
			fs.counters.Unrecoverable++
			done(true)
			return
		}
		fs.counters.DegradedReads++
		fs.streamBlocks(s, plan.Reads, node, func() {
			decode := fs.Cfg.DecodeCPUSecPerRead * float64(len(plan.Reads))
			fs.Cl.AddCPU(decode, 1)
			fs.Cl.Eng.Schedule(decode, func() { done(true) })
		})
	})
}
