package hdfs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
)

// This file implements the RaidNode daemon's lifecycle operations (§3):
//
//   - AddReplicatedFile: files enter the warehouse 3-way replicated.
//   - RaidFile: the RaidNode detects a file suitable for RAIDing,
//     launches a distributed MapReduce encoder job (one map task per
//     stripe) that reads the data blocks, computes parities, writes the
//     parity blocks, and finally lowers the replication factor to one.
//   - MigrateToLRC: the §3.1 backwards-compatibility path — an RS-encoded
//     file is upgraded to an LRC incrementally, computing only the local
//     XOR parities (each needs just its group's data blocks), leaving
//     the existing data and RS parity blocks untouched.

// AddReplicatedFile stores a file as dataBlocks individually replicated
// blocks (factor-way), the warehouse ingestion state before RAIDing.
func (fs *FS) AddReplicatedFile(name string, dataBlocks, factor int) ([]*Stripe, error) {
	if dataBlocks <= 0 {
		return nil, fmt.Errorf("hdfs: file %q has no blocks", name)
	}
	rep, err := core.NewReplication(factor)
	if err != nil {
		return nil, err
	}
	var stripes []*Stripe
	for i := 0; i < dataBlocks; i++ {
		s, err := fs.placeStripe(name, rep, 1)
		if err != nil {
			return nil, err
		}
		stripes = append(stripes, s)
		fs.stripes = append(fs.stripes, s)
	}
	return stripes, nil
}

// RaidFile encodes a replicated file into the FS's default coded scheme
// via a MapReduce encoder job and lowers replication to one (§3.1.1).
// The file's blocks are the primary (position-0) replicas of the given
// replicated stripes; surplus replicas are dropped when each coded
// stripe's parities are durable. onDone (optional) fires with the coded
// stripes once the whole job finishes.
func (fs *FS) RaidFile(name string, replicated []*Stripe, onDone func([]*Stripe)) error {
	if len(replicated) == 0 {
		return fmt.Errorf("hdfs: no stripes to raid for %q", name)
	}
	for i, s := range replicated {
		if _, ok := s.Scheme.(core.Replication); !ok {
			return fmt.Errorf("hdfs: stripe %d of %q is not replicated", i, name)
		}
		if s.Lost[0] {
			return fmt.Errorf("hdfs: stripe %d of %q has a lost primary; repair first", i, name)
		}
	}
	k := fs.Scheme.DataBlocks()
	job := &Job{Name: "raid-" + name}
	var coded []*Stripe
	for off := 0; off < len(replicated); off += k {
		hi := off + k
		if hi > len(replicated) {
			hi = len(replicated)
		}
		chunk := replicated[off:hi]
		job.AddTask(&Task{PreferredNode: chunk[0].Node[0], Run: func(node int, finish func()) {
			fs.runEncodeTask(name, chunk, node, func(s *Stripe) {
				coded = append(coded, s)
				finish()
			})
		}})
	}
	job.OnFinish = func(*Job) {
		// Lower replication: drop surplus replicas, retire the
		// replicated stripes (their primaries live on inside the coded
		// stripes).
		fs.removeStripes(replicated)
		if onDone != nil {
			onDone(coded)
		}
	}
	fs.Tracker.Submit(job)
	return nil
}

// runEncodeTask is one encoder map task: read the chunk's data blocks,
// burn encode CPU, write the parity blocks, and register the coded
// stripe.
func (fs *FS) runEncodeTask(name string, chunk []*Stripe, node int, done func(*Stripe)) {
	fs.Cl.Eng.Schedule(fs.Cfg.TaskLaunchSec, func() {
		// Read every data block (replica nearest to the task: primary).
		remaining := len(chunk)
		onRead := func() {
			remaining--
			if remaining > 0 {
				return
			}
			coded, err := fs.placeStripe(name, fs.Scheme, len(chunk))
			if err != nil {
				// Cluster too small mid-flight; keep replication.
				done(nil)
				return
			}
			// Data positions keep the primary replica's node: lowering
			// replication moves no data bytes.
			var parityPos []int
			for pos := 0; pos < fs.Scheme.Slots(); pos++ {
				if !fs.Scheme.Exists(pos, len(chunk)) {
					continue
				}
				if pos < fs.Scheme.DataBlocks() {
					coded.Node[pos] = chunk[pos].Node[0]
				} else {
					parityPos = append(parityPos, pos)
				}
			}
			encodeCPU := fs.Cfg.DecodeCPUSecPerRead * float64(len(chunk)+len(parityPos))
			fs.Cl.AddCPU(encodeCPU, 1)
			fs.Cl.Eng.Schedule(encodeCPU, func() {
				// Write each parity block to its placement node.
				writes := len(parityPos)
				if writes == 0 {
					fs.stripes = append(fs.stripes, coded)
					done(coded)
					return
				}
				onWrite := func() {
					writes--
					if writes == 0 {
						fs.stripes = append(fs.stripes, coded)
						done(coded)
					}
				}
				for _, pos := range parityPos {
					if err := fs.Cl.Transfer(node, coded.Node[pos], fs.Cfg.BlockSizeBytes, cluster.TagWrite, onWrite); err != nil {
						coded.Node[pos] = node // destination died: keep locally
						onWrite()
					}
				}
			})
		}
		for _, rs := range chunk {
			src := rs.Node[0]
			fs.counters.HDFSBytesRead += fs.Cfg.BlockSizeBytes
			if err := fs.Cl.Transfer(src, node, fs.Cfg.BlockSizeBytes, cluster.TagRead, onRead); err != nil {
				onRead()
			}
		}
	})
}

// MigrateToLRC upgrades an RS-coded stripe set to the given LRC scheme by
// computing only the new local parities — the §3.1 incremental migration
// ("Xorbas … can incrementally modify RS encoded files into LRCs by
// adding only local XOR parities"). Each local parity is computed by a
// map task that reads just its group's existing blocks. The LRC must
// extend the stripes' RS precode (same K and global parity count).
func (fs *FS) MigrateToLRC(name string, rsStripes []*Stripe, lrcScheme *core.Coded, onDone func([]*Stripe)) error {
	k := lrcScheme.DataBlocks()
	nPre := lrcScheme.Code().NPre()
	for i, s := range rsStripes {
		// RS-coded means: a coded scheme that stores no local parities yet.
		if gs, ok := s.Scheme.(GroupedScheme); !ok || len(gs.Groups()) > 0 {
			return fmt.Errorf("hdfs: stripe %d of %q is not RS-coded", i, name)
		}
		if s.Scheme.DataBlocks() != k || s.Scheme.Slots() != nPre {
			return fmt.Errorf("hdfs: stripe %d geometry (%d,%d) does not match the LRC precode (%d,%d)",
				i, s.Scheme.DataBlocks(), s.Scheme.Slots(), k, nPre)
		}
		for pos := range s.Node {
			if s.Lost[pos] {
				return fmt.Errorf("hdfs: stripe %d of %q has lost blocks; repair before migrating", i, name)
			}
		}
	}
	job := &Job{Name: "migrate-" + name}
	var migrated []*Stripe
	for _, s := range rsStripes {
		s := s
		job.AddTask(&Task{PreferredNode: s.Node[0], Run: func(node int, finish func()) {
			fs.runMigrateTask(s, lrcScheme, node, func(out *Stripe) {
				migrated = append(migrated, out)
				finish()
			})
		}})
	}
	job.OnFinish = func(*Job) {
		fs.removeStripes(rsStripes)
		if onDone != nil {
			onDone(migrated)
		}
	}
	fs.Tracker.Submit(job)
	return nil
}

// runMigrateTask computes the local parities for one stripe: for each
// data group with real blocks, read the group's data blocks, XOR, and
// write the local parity.
func (fs *FS) runMigrateTask(s *Stripe, lrcScheme *core.Coded, node int, done func(*Stripe)) {
	fs.Cl.Eng.Schedule(fs.Cfg.TaskLaunchSec, func() {
		nPre := lrcScheme.Code().NPre()
		out := &Stripe{
			File:      s.File,
			Scheme:    lrcScheme,
			DataCount: s.DataCount,
			Node:      make([]int, lrcScheme.Slots()),
			Lost:      make([]bool, lrcScheme.Slots()),
		}
		for i := range out.Node {
			out.Node[i] = -1
		}
		// Existing RS positions carry over untouched.
		for pos := 0; pos < nPre && pos < len(s.Node); pos++ {
			out.Node[pos] = s.Node[pos]
		}
		// Each new local parity reads its group's real data blocks.
		var readsTotal, writesTotal int
		type parityJob struct {
			pos   int
			reads []int
		}
		var jobs []parityJob
		for pos := nPre; pos < lrcScheme.Slots(); pos++ {
			if !lrcScheme.Exists(pos, s.DataCount) {
				continue
			}
			var reads []int
			for _, g := range lrcScheme.Groups() {
				inGroup := false
				for _, m := range g {
					if m == pos {
						inGroup = true
						break
					}
				}
				if !inGroup {
					continue
				}
				for _, m := range g {
					if m < s.DataCount {
						reads = append(reads, m)
					}
				}
			}
			jobs = append(jobs, parityJob{pos: pos, reads: reads})
			readsTotal += len(reads)
			writesTotal++
		}
		if len(jobs) == 0 {
			fs.stripes = append(fs.stripes, out)
			done(out)
			return
		}
		remaining := readsTotal
		startWrites := func() {
			cpu := fs.Cfg.DecodeCPUSecPerRead * float64(readsTotal)
			fs.Cl.AddCPU(cpu, 1)
			fs.Cl.Eng.Schedule(cpu, func() {
				writes := writesTotal
				for _, pj := range jobs {
					dest := fs.pickNewHome(out, pj.pos, node)
					pj := pj
					complete := func() {
						writes--
						if writes == 0 {
							fs.stripes = append(fs.stripes, out)
							done(out)
						}
					}
					out.Node[pj.pos] = dest
					if err := fs.Cl.Transfer(node, dest, fs.Cfg.BlockSizeBytes, cluster.TagWrite, complete); err != nil {
						out.Node[pj.pos] = node
						complete()
					}
				}
			})
		}
		onRead := func() {
			remaining--
			if remaining == 0 {
				startWrites()
			}
		}
		for _, pj := range jobs {
			for _, pos := range pj.reads {
				src := s.Node[pos]
				fs.counters.HDFSBytesRead += fs.Cfg.BlockSizeBytes
				if err := fs.Cl.Transfer(src, node, fs.Cfg.BlockSizeBytes, cluster.TagRead, onRead); err != nil {
					onRead()
				}
			}
		}
	})
}

// removeStripes unregisters stripes from the filesystem (their blocks are
// released — replication lowered or file re-encoded).
func (fs *FS) removeStripes(old []*Stripe) {
	drop := make(map[*Stripe]bool, len(old))
	for _, s := range old {
		drop[s] = true
	}
	keep := fs.stripes[:0]
	for _, s := range fs.stripes {
		if !drop[s] {
			keep = append(keep, s)
		}
	}
	fs.stripes = keep
}
