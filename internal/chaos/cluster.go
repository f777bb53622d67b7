package chaos

import (
	"fmt"
	"sync"

	"repro/internal/netblock"
	"repro/internal/store"
)

// Cluster is a loopback TCP block fleet that implements Target: n block
// servers on ephemeral ports (one MemBackend "disk" each), spanned by a
// pooled netblock client wrapped in a FaultBackend. Kill is a real
// SIGKILL equivalent — the listener and every in-flight connection die
// mid-request — and Restart boots a fresh empty process on a new port,
// repointed via SetNode. Latency/error/corruption faults inject on the
// client side of the wire, so they compose with real TCP failures.
//
// The FaultBackend wrapper is what a Store should mount: it forwards
// the client's WireStats, HealthChecker and HealthStats interfaces, so
// breaker state, wire counters and monitor probes all see through the
// fault layer.
type Cluster struct {
	mu      sync.Mutex
	servers []*netblock.Server
	// backends holds each node's MemBackend "disk", so tests can count
	// blocks per node — the presence/orphan walks of the rebalance
	// acceptance scenario.
	backends []*store.MemBackend
	client   *netblock.Client
	fault    *store.FaultBackend
}

// NewCluster boots n servers and dials the client with opts (zero
// fields take netblock defaults; chaos tests usually shrink
// DialTimeout, RetryBackoff and the breaker cooldown so scenarios
// converge in test time).
func NewCluster(n int, opts netblock.Options) (*Cluster, error) {
	c := &Cluster{
		servers:  make([]*netblock.Server, n),
		backends: make([]*store.MemBackend, n),
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		be := store.NewMemBackend()
		srv, addr, err := netblock.StartLocal(be)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("chaos: start node %d: %w", i, err)
		}
		c.servers[i] = srv
		c.backends[i] = be
		addrs[i] = addr
	}
	client, err := netblock.Dial(addrs, opts)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.client = client
	c.fault = store.NewFaultBackend(client, 1)
	return c, nil
}

// Backend returns what a Store should mount as its Config.Backend.
func (c *Cluster) Backend() store.Backend { return c.fault }

// Client returns the underlying netblock client (breaker snapshots,
// wire counters).
func (c *Cluster) Client() *netblock.Client { return c.client }

// Fault returns the injection layer, for direct scripting outside a
// Runner.
func (c *Cluster) Fault() *store.FaultBackend { return c.fault }

// Kill implements Target: hard-stop the node's server. Idempotent —
// killing a dead node is a no-op, like a SIGKILL to a gone pid.
func (c *Cluster) Kill(node int) error {
	c.mu.Lock()
	if node < 0 || node >= len(c.servers) {
		c.mu.Unlock()
		return fmt.Errorf("chaos: node %d out of range", node)
	}
	srv := c.servers[node]
	c.servers[node] = nil
	c.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	return nil
}

// Restart implements Target: boot a fresh empty process for the node on
// a new port and repoint the client. The blocks the old process held
// are gone — exactly what the scrub-on-revival path exists to notice.
func (c *Cluster) Restart(node int) error {
	c.mu.Lock()
	if node < 0 || node >= len(c.servers) {
		c.mu.Unlock()
		return fmt.Errorf("chaos: node %d out of range", node)
	}
	old := c.servers[node]
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	be := store.NewMemBackend()
	srv, addr, err := netblock.StartLocal(be)
	if err != nil {
		return fmt.Errorf("chaos: restart node %d: %w", node, err)
	}
	c.mu.Lock()
	c.servers[node] = srv
	c.backends[node] = be
	c.mu.Unlock()
	return c.client.SetNode(node, addr)
}

// StartNode boots one more block-server process (fresh empty disk, own
// port) and returns its address without registering it anywhere: the
// caller hands the address to Store.AddNode, which registers it with
// the netblock client through the NodeAdder chain — the same join path
// an operator drives with `xorbasctl node add`. Kill/Restart/BlockCount
// address the new node by the id Store.AddNode returns.
func (c *Cluster) StartNode() (string, error) {
	be := store.NewMemBackend()
	srv, addr, err := netblock.StartLocal(be)
	if err != nil {
		return "", fmt.Errorf("chaos: start node: %w", err)
	}
	c.mu.Lock()
	c.servers = append(c.servers, srv)
	c.backends = append(c.backends, be)
	c.mu.Unlock()
	return addr, nil
}

// BlockCount reports how many blocks a node's disk holds — what a
// presence walk over the node's directory would find. Counting works on
// dead nodes too (the disk outlives the process), so tests can assert a
// drained node's disk really emptied before its server went away.
func (c *Cluster) BlockCount(node int) int {
	c.mu.Lock()
	be := c.backends[node]
	c.mu.Unlock()
	return be.BlockCount(node)
}

// SetFault implements Target.
func (c *Cluster) SetFault(node int, f store.Fault) error {
	c.fault.SetFault(node, f)
	return nil
}

// Close stops every server and drops the client's connections.
func (c *Cluster) Close() {
	if c.client != nil {
		c.client.Close()
	}
	c.mu.Lock()
	servers := append([]*netblock.Server(nil), c.servers...)
	c.mu.Unlock()
	for _, srv := range servers {
		if srv != nil {
			srv.Close()
		}
	}
}
