// Package hdfs simulates the Distributed RAID File System of Section 3
// as far as Section 5 measures it: files divided into coded stripes, lost
// blocks detected and rebuilt by a BlockFixer through MapReduce repair
// jobs, with light/heavy decoder selection per the configured scheme.
// HDFS-RS and HDFS-Xorbas are the same FS with a different *lrc.Code.
package hdfs

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/lrc"
)

// Config tunes the filesystem and its repair machinery.
type Config struct {
	// BlockSizeBytes is the HDFS block size (64 MB in the EC2 runs,
	// 256 MB at Facebook).
	BlockSizeBytes float64
	// SlotsPerNode is the MapReduce map-slot count per TaskTracker.
	SlotsPerNode int
	// RepairMaxParallel caps concurrently running repair tasks per repair
	// job (the BlockFixer dispatches bounded jobs; 0 = unlimited).
	RepairMaxParallel int
	// TaskLaunchSec models MapReduce task start overhead.
	TaskLaunchSec float64
	// FixerScanSec is the BlockFixer detection delay: lost blocks are
	// picked up by the next periodic scan.
	FixerScanSec float64
	// DeployedReads selects the deployed read-set policy: the heavy
	// decoder opens streams to every available block of the stripe
	// (13 for RS(10,4), §3.1.2) instead of a minimal subset.
	DeployedReads bool
	// DecodeCPUSecPerRead is decoder CPU time per block streamed in.
	DecodeCPUSecPerRead float64
	// DegradedTimeoutSec stalls a reader before it falls back to
	// on-the-fly reconstruction of a missing block (degraded read).
	DegradedTimeoutSec float64
	// Seed drives placement and node choices deterministically.
	Seed int64
}

// Validate fills defaults.
func (c *Config) Validate() error {
	if c.BlockSizeBytes <= 0 {
		return fmt.Errorf("hdfs: block size must be positive")
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 2
	}
	return nil
}

// Stripe is one redundancy group of a file: DataCount real data blocks
// plus parities (or replicas) under the file system's scheme, spread over
// distinct nodes.
type Stripe struct {
	File      string
	DataCount int
	// Node[pos] is the DataNode storing stripe position pos, or −1 when
	// the position is not stored (zero padding of short stripes).
	Node []int
	// Lost[pos] marks positions currently missing.
	Lost []bool
}

// Exists reports whether position pos is stored in this stripe.
func (s *Stripe) Exists(pos int) bool { return s.Node[pos] >= 0 }

// Available reports whether position pos is stored and not lost.
func (s *Stripe) Available(pos int) bool { return s.Exists(pos) && !s.Lost[pos] }

// masks returns the exists/avail slices the repair planner consumes.
func (s *Stripe) masks() (exists, avail []bool) {
	exists = make([]bool, len(s.Node))
	avail = make([]bool, len(s.Node))
	for i := range s.Node {
		exists[i] = s.Node[i] >= 0
		avail[i] = exists[i] && !s.Lost[i]
	}
	return exists, avail
}

// Counters is a snapshot of the FS metrics the experiments report.
type Counters struct {
	// HDFSBytesRead aggregates the decoder input bytes (Fig 4a/6a).
	HDFSBytesRead float64
	// NetOutBytes is the cluster-wide outgoing traffic (Fig 4b/6b).
	NetOutBytes float64
	// DiskReadBytes is the cluster-wide disk read traffic (Fig 5b).
	DiskReadBytes                                             float64
	BlocksRepaired, LightRepairs, HeavyRepairs, Unrecoverable int
	DegradedReads                                             int
}

// FS is one DRFS instance on a cluster.
type FS struct {
	Cl      *cluster.Cluster
	Scheme  *lrc.Code
	Cfg     Config
	Tracker *JobTracker

	rng     *rand.Rand
	stripes []*Stripe

	fixerArmed  bool
	pendingLost []blockRef

	counters Counters
	// Repair window: first repair-task launch and last repair completion
	// since the last ResetRepairWindow (−1 when unset); the paper's
	// Repair Duration metric (§5.1).
	firstRepairLaunch float64
	lastRepairEnd     float64
}

type blockRef struct {
	s   *Stripe
	pos int
}

// New creates a DRFS over the cluster with the given code.
func New(cl *cluster.Cluster, scheme *lrc.Code, cfg Config) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fs := &FS{
		Cl:      cl,
		Scheme:  scheme,
		Cfg:     cfg,
		Tracker: NewJobTracker(cl, cfg.SlotsPerNode),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	fs.ResetRepairWindow()
	return fs, nil
}

// Stripes returns the filesystem's stripes (shared, do not mutate).
func (fs *FS) Stripes() []*Stripe { return fs.stripes }

// TotalBlocksStored counts stored (existing) block positions.
func (fs *FS) TotalBlocksStored() int {
	n := 0
	for _, s := range fs.stripes {
		for _, node := range s.Node {
			if node >= 0 {
				n++
			}
		}
	}
	return n
}

// BlocksOn counts stored, non-lost blocks on a node.
func (fs *FS) BlocksOn(node int) int {
	n := 0
	for _, s := range fs.stripes {
		for pos, nd := range s.Node {
			if nd == node && !s.Lost[pos] {
				n++
			}
		}
	}
	return n
}

// AddFile stripes a file of dataBlocks blocks across the cluster and
// returns its stripes. Placement follows the default policy: random
// DataNodes, never collocating blocks of the same stripe (§3.1.1).
func (fs *FS) AddFile(name string, dataBlocks int) ([]*Stripe, error) {
	if dataBlocks <= 0 {
		return nil, fmt.Errorf("hdfs: file %q has no blocks", name)
	}
	k := fs.Scheme.K()
	var stripes []*Stripe
	for off := 0; off < dataBlocks; off += k {
		dc := dataBlocks - off
		if dc > k {
			dc = k
		}
		s, err := fs.placeStripe(name, dc)
		if err != nil {
			return nil, err
		}
		stripes = append(stripes, s)
		fs.stripes = append(fs.stripes, s)
	}
	return stripes, nil
}

// placeStripe allocates nodes for one stripe.
func (fs *FS) placeStripe(file string, dataCount int) (*Stripe, error) {
	slots := fs.Scheme.NStored()
	s := &Stripe{File: file, DataCount: dataCount, Node: make([]int, slots), Lost: make([]bool, slots)}
	for i := range s.Node {
		s.Node[i] = -1
	}
	var positions []int
	for pos := 0; pos < slots; pos++ {
		if fs.Scheme.Exists(pos, dataCount) {
			positions = append(positions, pos)
		}
	}
	live := fs.Cl.LiveNodes()
	if len(live) < 2 {
		return nil, fmt.Errorf("hdfs: %d live nodes cannot hold a stripe", len(live))
	}
	// Random placement avoiding collocation; when the stripe is wider
	// than the cluster (e.g. 16-block Xorbas stripes on the 15-slave
	// WordCount cluster, §5.2.4), wrap around the shuffled node list so
	// collocation is minimized and even.
	perm := fs.rng.Perm(len(live))
	for i, pos := range positions {
		s.Node[pos] = live[perm[i%len(live)]]
	}
	return s, nil
}

// Snapshot returns the current counters (including cluster byte totals).
func (fs *FS) Snapshot() Counters {
	c := fs.counters
	c.NetOutBytes = fs.Cl.M.NetOutTotal
	c.DiskReadBytes = fs.Cl.M.DiskReadTotal
	return c
}

// Delta subtracts an earlier snapshot from the current one.
func (fs *FS) Delta(earlier Counters) Counters {
	now := fs.Snapshot()
	return Counters{
		HDFSBytesRead:  now.HDFSBytesRead - earlier.HDFSBytesRead,
		NetOutBytes:    now.NetOutBytes - earlier.NetOutBytes,
		DiskReadBytes:  now.DiskReadBytes - earlier.DiskReadBytes,
		BlocksRepaired: now.BlocksRepaired - earlier.BlocksRepaired,
		LightRepairs:   now.LightRepairs - earlier.LightRepairs,
		HeavyRepairs:   now.HeavyRepairs - earlier.HeavyRepairs,
		Unrecoverable:  now.Unrecoverable - earlier.Unrecoverable,
		DegradedReads:  now.DegradedReads - earlier.DegradedReads,
	}
}

// ResetRepairWindow clears the repair duration window.
func (fs *FS) ResetRepairWindow() {
	fs.firstRepairLaunch = -1
	fs.lastRepairEnd = -1
}

// RepairDuration returns the paper's Repair Duration: the interval from
// the first repair job launch to the last repair completion since the
// last ResetRepairWindow, or 0 if no repairs ran.
func (fs *FS) RepairDuration() float64 {
	if fs.firstRepairLaunch < 0 || fs.lastRepairEnd < 0 {
		return 0
	}
	return fs.lastRepairEnd - fs.firstRepairLaunch
}
