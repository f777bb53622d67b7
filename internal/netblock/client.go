package netblock

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Options tunes a Client. Zero fields take defaults.
//
// There is no retry policy: every block op gets one attempt (see do). A
// block that cannot be read is the store's to rebuild from the rest of
// its stripe, and whether a node is down is its HealthMonitor's call.
// There is no transfer size either: a block crosses the wire in one
// frame, and Timeout grows with its bytes.
type Options struct {
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// Timeout is the per-operation IO deadline covering the request
	// write and the response read (default 10s) — a hung node surfaces
	// as a failed block op, which the store treats like any other read
	// failure and reconstructs around. Payload bytes get extra budget on
	// top: the deadline grows by payload/wireFloorRate, so a 256 MB
	// block over a slow link is not condemned by a deadline sized for
	// pings.
	Timeout time.Duration
}

// idlePerNode caps the idle connections kept per node: the store's I/O
// pools fan out to 4 workers, but those spread over k distinct nodes under
// rack-aware placement.
const idlePerNode = 2

func (o *Options) fillDefaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
}

// clientNode is one remote node: its address, idle-connection pool and
// wire counters.
type clientNode struct {
	mu   sync.Mutex
	addr string
	idle []net.Conn

	sent, recv atomic.Int64

	health *nodeHealth
}

// Client implements store.Backend across N remote block servers: node i
// of the store maps to nodes[i] of the address list, so a 16-wide LRC
// stripe spreads over 16 node processes exactly as it spreads over 16
// directories under a DirBackend. Connections are pooled per node;
// every operation gets one attempt, and a failed one is the caller's to
// route around (the store reads the block from the rest of its stripe);
// every request and response byte is counted per node, which is
// how the paper's repair-traffic claim is measured on the wire
// (store.Metrics surfaces the totals as WireSentBytes/WireRecvBytes).
//
// A Write's buffer is fully drained to the socket (or the operation has
// failed) before return and nothing of it is kept, which is what lets
// the store reuse its stripe slabs over a fleet. Client also implements
// store.OwnedWriter, trivially: taking ownership of a buffer it does not
// keep is free.
type Client struct {
	opts Options

	// mu guards the node table's shape: AddNode grows it at runtime
	// (elastic membership), so every index lookup snapshots under the
	// read lock. The *clientNode entries themselves never move or get
	// replaced — per-node state has its own locks.
	mu    sync.RWMutex
	nodes []*clientNode
}

// Dial builds a client over the given node addresses (host:port, one
// per store node). No connections are opened until the first operation,
// so a cluster can be wired up before every node is listening.
func Dial(addrs []string, opts Options) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netblock: no node addresses")
	}
	opts.fillDefaults()
	c := &Client{opts: opts, nodes: make([]*clientNode, len(addrs))}
	for i, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("netblock: empty address for node %d", i)
		}
		c.nodes[i] = &clientNode{addr: a, health: new(nodeHealth)}
	}
	return c, nil
}

// Nodes returns how many node addresses the client spans.
func (c *Client) Nodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// AddNode implements store.NodeAdder: one more node joins the address
// table and its id (the previous count) is returned. An empty addr is
// accepted — the store re-registers retired nodes at recovery to keep
// ids aligned, and an address-less node simply fails every dial until
// SetNode repoints it.
func (c *Client) AddNode(addr string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := len(c.nodes)
	c.nodes = append(c.nodes, &clientNode{addr: addr, health: new(nodeHealth)})
	return id, nil
}

// nodesSnapshot copies the node table under the read lock.
func (c *Client) nodesSnapshot() []*clientNode {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*clientNode(nil), c.nodes...)
}

// SetNode repoints node to addr — a node that came back on a new port
// (or a replacement process) slots in without rebuilding the client.
// Pooled connections to the old address are dropped.
func (c *Client) SetNode(node int, addr string) error {
	n, err := c.node(node)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.addr = addr
	idle := n.idle
	n.idle = nil
	n.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	// The old process's failures say nothing about the new one: start it
	// with a clean window.
	n.health.reset()
	return nil
}

// Close drops every pooled connection. The client remains usable (new
// operations dial afresh); Close exists so tests and the CLI exit
// without lingering sockets.
func (c *Client) Close() error {
	for _, n := range c.nodesSnapshot() {
		n.mu.Lock()
		idle := n.idle
		n.idle = nil
		n.mu.Unlock()
		for _, conn := range idle {
			conn.Close()
		}
	}
	return nil
}

// WireTraffic implements store.WireStats: cumulative protocol bytes
// sent to and received from each node (headers + keys + payloads; TCP/IP
// framing excluded). Index i is store node i.
func (c *Client) WireTraffic() (sent, recv []int64) {
	nodes := c.nodesSnapshot()
	sent = make([]int64, len(nodes))
	recv = make([]int64, len(nodes))
	for i, n := range nodes {
		sent[i] = n.sent.Load()
		recv[i] = n.recv.Load()
	}
	return sent, recv
}

func (c *Client) node(node int) (*clientNode, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if node < 0 || node >= len(c.nodes) {
		return nil, fmt.Errorf("netblock: node %d out of range [0,%d)", node, len(c.nodes))
	}
	return c.nodes[node], nil
}

// dial opens a connection to a node. It is a variable so tests can
// script the transport's dial failures.
var dial = net.DialTimeout

// getConn pops an idle connection (pooled=true) or, when none is idle
// or fresh is set, dials a new one. addr is the node address the
// connection belongs to, snapshotted once for the dial and the pooling:
// putConn uses it to spot connections that outlived a SetNode.
func (c *Client) getConn(n *clientNode, fresh bool) (conn net.Conn, addr string, pooled bool, err error) {
	n.mu.Lock()
	if !fresh && len(n.idle) > 0 {
		conn := n.idle[len(n.idle)-1]
		n.idle = n.idle[:len(n.idle)-1]
		addr := n.addr
		n.mu.Unlock()
		return conn, addr, true, nil
	}
	addr = n.addr
	n.mu.Unlock()
	conn, err = dial("tcp", addr, c.opts.DialTimeout)
	return conn, addr, false, err
}

// putConn returns a healthy connection to the pool, or closes it when
// the pool is full or the node has been re-addressed since the
// connection was checked out (SetNode flushes the idle pool, but an
// in-flight connection completes afterwards — pooling it would let a
// later operation talk to the old process).
func (c *Client) putConn(n *clientNode, conn net.Conn, addr string) {
	n.mu.Lock()
	if addr == n.addr && len(n.idle) < idlePerNode {
		n.idle = append(n.idle, conn)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	conn.Close()
}

// exchange runs one request/response against node n and pools the
// connection after any reply. Pooled sockets go first, unless fresh is
// set (a probe: a stale pooled socket failing says nothing about the
// node, and one succeeding proves nothing about whether it still accepts
// connections). A pooled socket that fails is closed and the next is
// tried, recording nothing — a node that restarted since the pool filled
// leaves up to idlePerNode dead sockets behind. The freshly dialed
// attempt is timed from before its dial, recorded in the node's outcome
// window, and final. A non-OK status comes back as the error it means.
func (c *Client) exchange(n *clientNode, fresh bool, op byte, node int, key string, data, dst []byte) ([]byte, error) {
	for {
		start := time.Now()
		conn, addr, pooled, err := c.getConn(n, fresh)
		if err == nil {
			var status byte
			var body []byte
			status, body, err = c.roundTrip(n, conn, op, node, key, data, dst)
			if err == nil {
				n.health.record(true, time.Since(start), nil)
				c.putConn(n, conn, addr)
				if status != statusOK {
					return nil, statusErr(status, body, node, key)
				}
				return body, nil
			}
			conn.Close()
			if pooled {
				continue
			}
		}
		n.health.record(false, time.Since(start), err)
		return nil, fmt.Errorf("netblock: node %d (%s) unreachable: %w", node, addr, err)
	}
}

// statusErr maps a non-OK reply onto the store's errors. The node
// answered, so the answer stands.
func statusErr(status byte, body []byte, node int, key string) error {
	switch status {
	case statusNotFound:
		return fmt.Errorf("%w: node %d key %q", store.ErrBlockNotFound, node, key)
	case statusBadKey:
		return fmt.Errorf("%w: node %d: %s", store.ErrBadKey, node, body)
	default:
		return fmt.Errorf("netblock: node %d: remote error: %s", node, body)
	}
}

// do runs one block op against a node in one attempt (exchange): a
// transport failure is returned, not retried — the store reads a block it
// cannot fetch from the rest of its stripe, and its HealthMonitor alone
// decides whether the node is down. The returned payload is the response
// body (block bytes for reads), received into dst when dst is non-nil and
// the body fits it (readResponse). A stale pooled socket passed over
// first receives into the same dst, so a failed op leaves whatever it got
// there; only the body of a round trip that succeeded is ever returned.
func (c *Client) do(node int, op byte, key string, data, dst []byte) ([]byte, error) {
	n, err := c.node(node)
	if err != nil {
		return nil, err
	}
	// The header's keyLen field is 16 bits: a longer key would encode
	// truncated and desync the stream, so refuse it here. The server's
	// own cap is the same, so anything past it would only be rejected
	// remotely anyway.
	if len(key) > maxKeyLen {
		return nil, fmt.Errorf("netblock: key length %d exceeds limit %d", len(key), maxKeyLen)
	}
	return c.exchange(n, false, op, node, key, data, dst)
}

// wireFloorRate is the slowest link the deadline math tolerates, in
// bytes per second (4 MiB/s ≈ 34 Mbps): Options.Timeout budgets the
// headers and turnaround, and each payload byte adds 1/wireFloorRate on
// top via opTimeout.
const wireFloorRate = 4 << 20

// opTimeout returns the IO budget for an operation moving n payload
// bytes: the configured Timeout plus the payload at wireFloorRate.
func (c *Client) opTimeout(n int) time.Duration {
	return c.opts.Timeout + time.Duration(n)*time.Second/wireFloorRate
}

// roundTrip performs one framed request/response on conn under the IO
// deadline, charging the node's wire counters for exactly the protocol
// bytes moved. The payload goes out as one vectored write alongside the
// header+key (writev on a TCP conn): no staging copy of the block
// between the store's stripe slab and the socket. The deadline scales
// with the bytes in play — the request payload up front, the response
// payload once its header announces the size. dst is readResponse's.
func (c *Client) roundTrip(n *clientNode, conn net.Conn, op byte, node int, key string, data, dst []byte) (byte, []byte, error) {
	if err := conn.SetDeadline(time.Now().Add(c.opTimeout(len(data)))); err != nil {
		return 0, nil, err
	}
	hdr := appendHeader(make([]byte, 0, reqHeaderLen+len(key)), op, node, key, len(data))
	if len(data) > 0 {
		bufs := net.Buffers{hdr, data}
		if _, err := bufs.WriteTo(conn); err != nil {
			return 0, nil, err
		}
	} else if _, err := conn.Write(hdr); err != nil {
		return 0, nil, err
	}
	n.sent.Add(requestWireLen(key, data))
	status, body, wire, err := readResponse(conn, func(size int) {
		if size > 0 {
			conn.SetDeadline(time.Now().Add(c.opTimeout(size)))
		}
	}, dst)
	if err != nil {
		return 0, nil, err
	}
	n.recv.Add(wire)
	return status, body, nil
}

// Write implements store.Backend.
func (c *Client) Write(node int, key string, data []byte) error {
	_, err := c.do(node, opWrite, key, data, nil)
	return err
}

// WriteOwned implements store.OwnedWriter: the buffer is sent (or the
// operation has failed) by return time and never kept, so it is Write.
func (c *Client) WriteOwned(node int, key string, data []byte) error {
	return c.Write(node, key, data)
}

// Read implements store.Backend: the block arrives in a buffer of
// exactly its own length that the caller owns.
func (c *Client) Read(node int, key string) ([]byte, error) {
	return c.ReadInto(node, key, nil)
}

// ReadInto implements store.IntoReader: a block that fits cap(dst) is
// received straight into dst and returned as dst[:len] — no allocation,
// no zeroing, no copy — and one that does not fit, or any block when dst
// is nil, comes back in a buffer of its own exactly as from Read. The
// caller must use the returned slice; after an error dst holds garbage.
func (c *Client) ReadInto(node int, key string, dst []byte) ([]byte, error) {
	return c.do(node, opRead, key, nil, dst)
}

// Delete implements store.Backend.
func (c *Client) Delete(node int, key string) error {
	_, err := c.do(node, opDelete, key, nil, nil)
	return err
}

// DeleteMany implements store.BatchDeleter: every key in one opDeleteMany
// round trip. The server refuses the whole list, deleting nothing, if any
// key fails its checks.
func (c *Client) DeleteMany(node int, keys []string) error {
	for _, k := range keys {
		if len(k) > maxKeyLen {
			return fmt.Errorf("netblock: key length %d exceeds limit %d", len(k), maxKeyLen)
		}
	}
	_, err := c.do(node, opDeleteMany, "", appendKeyList(nil, keys), nil)
	return err
}

// CheckNode implements store.HealthChecker: one ping on a fresh
// connection, so a probe costs at most DialTimeout + Timeout and a stale
// pooled socket cannot vouch for a node that no longer accepts
// connections. The HealthMonitor's streaks are the retry and hysteresis
// policy.
func (c *Client) CheckNode(node int) error {
	n, err := c.node(node)
	if err != nil {
		return err
	}
	_, err = c.exchange(n, true, opPing, node, "", nil, nil)
	return err
}

// NodeHealth implements store.HealthStats: a snapshot of every node's
// windowed error/latency accounting.
func (c *Client) NodeHealth() []store.NodeHealthInfo {
	nodes := c.nodesSnapshot()
	out := make([]store.NodeHealthInfo, len(nodes))
	for i, n := range nodes {
		out[i] = n.health.snapshot()
		out[i].Node = i
	}
	return out
}
