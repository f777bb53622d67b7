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
	// Retries is how many extra attempts an operation gets after a
	// transport failure, each on a freshly dialed connection. The zero
	// value means "use the default" (2), so to disable retries entirely
	// set any negative value, which is clamped to zero extra attempts.
	// Application-level failures (not-found, remote errors) never retry:
	// the node answered, the answer stands.
	Retries int
	// RetryBackoff is the base sleep between retry attempts on one
	// operation (default 5ms), doubling per attempt with jitter so a
	// down node is never hammered back-to-back. Negative disables the
	// sleep entirely (tests that want deterministic timing).
	RetryBackoff time.Duration
	// RetryBudget caps one operation's total retry wall-time — dials,
	// round trips and backoff sleeps together (default 15s). When the
	// budget runs out the operation fails with whatever error the last
	// attempt produced, even if attempts remain.
	RetryBudget time.Duration
	// BreakerThreshold is how many consecutive transport failures open a
	// node's circuit breaker (default 5; negative disables the breaker).
	// With the breaker open, operations on the node fail fast with
	// ErrBreakerOpen instead of burning a dial timeout each; after a
	// jittered exponential cooldown one operation is admitted as the
	// half-open probe (a protocol ping) and its outcome closes or
	// re-opens the breaker.
	BreakerThreshold int
	// BreakerCooldown is the breaker's base open duration (default
	// 250ms), doubling on every consecutive re-open up to
	// BreakerMaxCooldown (default 15s). Both are jittered.
	BreakerCooldown time.Duration
	// BreakerMaxCooldown caps the exponential cooldown growth.
	BreakerMaxCooldown time.Duration
	// ChunkSize is the window size for streamed block transfers
	// (ReadBlockTo / WriteBlockFrom), default 1 MiB. Each window is one
	// request/response, so the per-operation deadline applies per window
	// and a multi-GB migration never needs a multi-GB deadline.
	ChunkSize int
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
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 15 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	} else if o.BreakerThreshold < 0 {
		o.BreakerThreshold = -1
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
	if o.BreakerMaxCooldown <= 0 {
		o.BreakerMaxCooldown = 15 * time.Second
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
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
// failed operations retry on fresh connections up to Options.Retries
// times; every request and response byte is counted per node, which is
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
		c.nodes[i] = &clientNode{
			addr:   a,
			health: newNodeHealth(opts.BreakerThreshold, opts.BreakerCooldown, opts.BreakerMaxCooldown),
		}
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
	c.nodes = append(c.nodes, &clientNode{
		addr:   addr,
		health: newNodeHealth(c.opts.BreakerThreshold, c.opts.BreakerCooldown, c.opts.BreakerMaxCooldown),
	})
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
	// with a clean window and a closed breaker.
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

// getConn pops an idle connection (pooled=true) or dials a fresh one.
// addr is the node address the connection belongs to — putConn uses it
// to spot connections that outlived a SetNode.
func (c *Client) getConn(n *clientNode) (conn net.Conn, addr string, pooled bool, err error) {
	n.mu.Lock()
	if len(n.idle) > 0 {
		conn := n.idle[len(n.idle)-1]
		n.idle = n.idle[:len(n.idle)-1]
		addr := n.addr
		n.mu.Unlock()
		return conn, addr, true, nil
	}
	addr = n.addr
	n.mu.Unlock()
	conn, err = net.DialTimeout("tcp", addr, c.opts.DialTimeout)
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

// do runs one request against a node with bounded retries. Transport
// errors burn the connection and retry after a jittered exponential
// backoff; status-level replies are final. Failures on pooled
// connections are free — a node that restarted since the pool filled
// leaves up to idlePerNode dead sockets behind, and charging those against
// the retry budget could declare a healthy node unreachable before a
// single fresh dial — only freshly dialed attempts count against the
// retry count, the health window and the breaker. Options.RetryBudget
// caps the operation's total wall-time across attempts and sleeps. The
// returned payload is the response body (block bytes for reads), received
// into dst when dst is non-nil and the body fits it (readResponse). Every
// attempt of one operation receives into the same dst, so a failed or
// retried round trip leaves whatever it got there; only the body of the
// attempt that succeeded is ever returned.
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
	probe, err := n.health.allow()
	if err != nil {
		return nil, fmt.Errorf("netblock: node %d: %w", node, err)
	}
	if probe && op != opPing {
		// Half-open: prove the node answers a ping on a fresh connection
		// before committing the real (possibly payload-heavy) operation.
		// The ping's outcome drives the breaker; a success also clears
		// the probing latch so the real op below runs against a closed
		// breaker.
		if err := c.attempt(n, node); err != nil {
			return nil, fmt.Errorf("netblock: node %d failed half-open probe: %w", node, err)
		}
	}
	deadline := time.Now().Add(c.opts.RetryBudget)
	backoff := c.opts.RetryBackoff
	var lastErr error
	attempt := 0
	for attempt <= c.opts.Retries {
		conn, addr, pooled, err := c.getConn(n)
		if err != nil {
			n.health.record(false, 0, err)
			lastErr = err
			attempt++
			if !c.backoff(&backoff, attempt, deadline) {
				break
			}
			continue
		}
		start := time.Now()
		status, body, err := c.roundTrip(n, conn, op, node, key, data, dst)
		if err != nil {
			conn.Close()
			lastErr = err
			if !pooled {
				n.health.record(false, time.Since(start), err)
				attempt++
				if !c.backoff(&backoff, attempt, deadline) {
					break
				}
			}
			continue
		}
		n.health.record(true, time.Since(start), nil)
		c.putConn(n, conn, addr)
		switch status {
		case statusOK:
			return body, nil
		case statusNotFound:
			return nil, fmt.Errorf("%w: node %d key %q", store.ErrBlockNotFound, node, key)
		case statusBadKey:
			return nil, fmt.Errorf("%w: node %d: %s", store.ErrBadKey, node, body)
		default:
			return nil, fmt.Errorf("netblock: node %d: remote error: %s", node, body)
		}
	}
	return nil, fmt.Errorf("netblock: node %d (%s) unreachable after %d attempts: %w",
		node, n.addrSnapshot(), attempt, lastErr)
}

// attempt runs one non-retrying ping on a fresh connection, recording
// the outcome in the node's health window. It is the half-open probe
// path: pooled connections are skipped because a stale pooled socket
// failing must not re-open the breaker the probe is trying to close.
func (c *Client) attempt(n *clientNode, node int) error {
	start := time.Now()
	// One snapshot serves the dial and the pooling: putConn refuses a
	// connection whose address is no longer the node's, and a second
	// snapshot taken after a SetNode would vouch for a socket to the old
	// process under the new address.
	addr := n.addrSnapshot()
	conn, err := net.DialTimeout("tcp", addr, c.opts.DialTimeout)
	if err != nil {
		n.health.record(false, time.Since(start), err)
		return err
	}
	status, body, err := c.roundTrip(n, conn, opPing, node, "", nil, nil)
	if err != nil {
		conn.Close()
		n.health.record(false, time.Since(start), err)
		return err
	}
	n.health.record(true, time.Since(start), nil)
	c.putConn(n, conn, addr)
	if status != statusOK {
		return fmt.Errorf("netblock: node %d: remote error: %s", node, body)
	}
	return nil
}

// backoff sleeps the jittered current backoff (doubling it for next
// time) before another attempt. It returns false when no attempts
// remain worth sleeping for: the retry budget deadline has passed or
// would pass mid-sleep. A negative RetryBackoff skips sleeping but
// still honors the deadline.
func (c *Client) backoff(cur *time.Duration, attempt int, deadline time.Time) bool {
	if attempt > c.opts.Retries {
		return false // last attempt burned; no sleep before reporting failure
	}
	if c.opts.RetryBackoff < 0 {
		return time.Now().Before(deadline)
	}
	d := jitter(*cur)
	*cur *= 2
	if time.Now().Add(d).After(deadline) {
		return false
	}
	time.Sleep(d)
	return true
}

func (n *clientNode) addrSnapshot() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addr
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

// Ping checks liveness of one node over a pooled connection. Ping goes
// through the same breaker gate as every other operation: with the
// breaker open it fails fast, and once the cooldown elapses the ping
// itself is the half-open probe — so a HealthMonitor polling CheckNode
// is exactly the probe driver the breaker wants.
func (c *Client) Ping(node int) error {
	_, err := c.do(node, opPing, "", nil, nil)
	return err
}

// CheckNode implements store.HealthChecker: one breaker-aware liveness
// probe. An open breaker failing fast is the correct monitor signal —
// the node has already proven itself down this cooldown window.
func (c *Client) CheckNode(node int) error { return c.Ping(node) }

// NodeHealth implements store.HealthStats: a snapshot of every node's
// breaker state and windowed error/latency accounting.
func (c *Client) NodeHealth() []store.NodeHealthInfo {
	nodes := c.nodesSnapshot()
	out := make([]store.NodeHealthInfo, len(nodes))
	for i, n := range nodes {
		out[i] = n.health.snapshot()
		out[i].Node = i
	}
	return out
}
