// Package cluster models the physical substrate of Section 5's testbeds:
// one rack of DataNode machines with NIC and disk bandwidth, and the
// byte/CPU counters the paper's plots are drawn from (HDFS bytes read,
// network-out traffic, disk bytes read, CPU utilization — Figs 4–6).
package cluster

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Config sizes a simulated cluster.
type Config struct {
	// Nodes is the number of DataNodes (50 slaves on EC2, 35 at Facebook).
	Nodes int
	// NodeOutBps / NodeInBps are per-node NIC capacities in bytes/s.
	NodeOutBps, NodeInBps float64
	// DiskReadBps caps a node's effective egress when serving blocks
	// (folded into the egress capacity as min(NodeOutBps, DiskReadBps)).
	DiskReadBps float64
	// BucketSec is the metrics time-series resolution (300 s in the
	// paper's CloudWatch plots).
	BucketSec float64
}

// Validate fills defaults and rejects nonsense.
func (c *Config) Validate() error {
	if c.Nodes <= 1 {
		return fmt.Errorf("cluster: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.NodeOutBps <= 0 || c.NodeInBps <= 0 {
		return fmt.Errorf("cluster: node bandwidths must be positive")
	}
	if c.BucketSec <= 0 {
		c.BucketSec = 300
	}
	return nil
}

// Metrics aggregates cluster-wide counters; the experiment harness reads
// them directly.
type Metrics struct {
	// NetOut / DiskRead are bucketed byte series (Figs 5a, 5b).
	NetOut   *stats.TimeSeries
	DiskRead *stats.TimeSeries
	// CPUBusy accumulates busy node-seconds per bucket (Fig 5c divides by
	// Nodes·BucketSec for a utilization percentage).
	CPUBusy *stats.TimeSeries
	// Totals since construction.
	NetOutTotal   float64
	DiskReadTotal float64
}

// Cluster is a set of nodes over a shared fluid network.
type Cluster struct {
	Eng *sim.Engine
	Net *sim.Net
	cfg Config

	alive []bool
	M     *Metrics
}

// New builds a cluster on the engine.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := cfg.NodeOutBps
	if cfg.DiskReadBps > 0 && cfg.DiskReadBps < out {
		out = cfg.DiskReadBps
	}
	c := &Cluster{
		Eng:   eng,
		Net:   sim.NewNet(eng, cfg.Nodes, out, cfg.NodeInBps),
		cfg:   cfg,
		alive: make([]bool, cfg.Nodes),
		M: &Metrics{
			NetOut:   stats.NewTimeSeries(cfg.BucketSec),
			DiskRead: stats.NewTimeSeries(cfg.BucketSec),
			CPUBusy:  stats.NewTimeSeries(cfg.BucketSec),
		},
	}
	for i := range c.alive {
		c.alive[i] = true
	}
	c.Net.OnProgress = func(f *sim.Flow, bytes float64) {
		t := eng.Now()
		c.M.NetOut.Add(t, bytes)
		c.M.NetOutTotal += bytes
		if f.Tag == TagRead {
			c.M.DiskRead.Add(t, bytes)
			c.M.DiskReadTotal += bytes
		}
	}
	return c, nil
}

// Flow tags for metrics attribution.
const (
	// TagRead marks block reads served from a source disk (repairs,
	// degraded reads): they count as disk bytes read at the source.
	TagRead = "read"
	// TagWrite marks block writes (rebuilt blocks stored to a DataNode).
	TagWrite = "write"
)

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Alive reports whether a node is up.
func (c *Cluster) Alive(n int) bool { return n >= 0 && n < len(c.alive) && c.alive[n] }

// LiveNodes returns the ids of all live nodes.
func (c *Cluster) LiveNodes() []int {
	var out []int
	for i, a := range c.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// Kill terminates a node (the paper's failure events: DataNode
// terminations, §5.2). Idempotent.
func (c *Cluster) Kill(n int) {
	if n >= 0 && n < len(c.alive) {
		c.alive[n] = false
	}
}

// Restart brings a node back (transient failures resolve, §1.1).
func (c *Cluster) Restart(n int) {
	if n >= 0 && n < len(c.alive) {
		c.alive[n] = true
	}
}

// Transfer starts a block transfer between live nodes and returns an
// error if either endpoint is dead. done may be nil.
func (c *Cluster) Transfer(from, to int, bytes float64, tag string, done func()) error {
	if !c.Alive(from) {
		return fmt.Errorf("cluster: source node %d is dead", from)
	}
	if !c.Alive(to) {
		return fmt.Errorf("cluster: destination node %d is dead", to)
	}
	c.Net.StartFlow(from, to, bytes, tag, func(*sim.Flow) {
		if done != nil {
			done()
		}
	})
	return nil
}

// AddCPU records fraction·duration busy node-seconds starting at the
// current time, spread across buckets.
func (c *Cluster) AddCPU(durationSec, fraction float64) {
	t := c.Eng.Now()
	remaining := durationSec
	for remaining > 0 {
		bucketEnd := (float64(int(t/c.cfg.BucketSec)) + 1) * c.cfg.BucketSec
		span := bucketEnd - t
		if span > remaining {
			span = remaining
		}
		c.M.CPUBusy.Add(t, span*fraction)
		t += span
		remaining -= span
	}
}

// CPUUtilizationPercent converts the busy series into the Fig 5c average
// utilization percentage per bucket, with an optional baseline (Hadoop
// daemons, OS) added.
func (c *Cluster) CPUUtilizationPercent(baselinePercent float64) []float64 {
	busy := c.M.CPUBusy.Buckets()
	out := make([]float64, len(busy))
	denom := float64(c.cfg.Nodes) * c.cfg.BucketSec
	for i, b := range busy {
		u := baselinePercent + 100*b/denom
		if u > 100 {
			u = 100
		}
		out[i] = u
	}
	return out
}
