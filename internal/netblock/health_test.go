package netblock

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// closedPort reserves a loopback port and closes it, so nothing listens
// there for the rest of the test.
func closedPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestSetNodeResetsWindow checks that repointing a node clears its
// failure history — the new process starts with an empty window.
func TestSetNodeResetsWindow(t *testing.T) {
	addr := closedPort(t)
	c, err := Dial([]string{addr}, Options{DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		if err := c.CheckNode(0); err == nil {
			t.Fatal("probe of a closed port succeeded")
		}
	}
	if info := c.NodeHealth()[0]; info.ConsecFails != 2 || info.WindowOps != 2 || info.LastErr == "" {
		t.Fatalf("window before SetNode = %+v, want 2 failed ops", info)
	}
	_, addr2 := startServer(t, store.NewMemBackend())
	if err := c.SetNode(0, addr2); err != nil {
		t.Fatal(err)
	}
	if info := c.NodeHealth()[0]; info.ConsecFails != 0 || info.WindowOps != 0 || info.LastErr != "" {
		t.Fatalf("window after SetNode = %+v, want empty", info)
	}
	if err := c.CheckNode(0); err != nil {
		t.Fatalf("probe after SetNode: %v", err)
	}
}

// failDials makes every dial of the rest of the test call f and then
// fail.
func failDials(t *testing.T, f func()) {
	orig := dial
	dial = func(string, string, time.Duration) (net.Conn, error) {
		f()
		return nil, errors.New("scripted dial failure")
	}
	t.Cleanup(func() { dial = orig })
}

// TestFailedDialsRecordTheirCost scripts a dial that takes 20ms and then
// fails, through each path that dials: an ordinary op, CheckNode's probe
// and a streamed upload. Every failure lands in the
// window with what it cost the caller, so the window's quantiles show
// the wait instead of 0µs.
func TestFailedDialsRecordTheirCost(t *testing.T) {
	const cost = 20 * time.Millisecond
	failDials(t, func() { time.Sleep(cost) })
	c, err := Dial([]string{"127.0.0.1:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read(0, "k"); err == nil {
		t.Fatal("read over a failing dial succeeded")
	}
	if err := c.CheckNode(0); err == nil {
		t.Fatal("CheckNode over a failing dial succeeded")
	}
	if _, err := c.WriteBlockFrom(0, "k", strings.NewReader("x")); err == nil {
		t.Fatal("WriteBlockFrom over a failing dial succeeded")
	}
	info := c.NodeHealth()[0]
	if info.ConsecFails != 3 || info.WindowOps != 3 || info.WindowErrRate != 1 {
		t.Fatalf("window = %+v, want 3 failed ops", info)
	}
	if info.P50 < cost {
		t.Fatalf("P50 = %v, want >= %v: failed dials must record their cost", info.P50, cost)
	}
}

// TestCheckNodeIsOneAttempt checks that the monitor's probe is a single
// dial, so one probe costs at most DialTimeout + Timeout, and that an
// ordinary op is one dial too: the HealthMonitor's streaks are the only
// retry policy, and a block the store cannot fetch it reads around.
func TestCheckNodeIsOneAttempt(t *testing.T) {
	var dials atomic.Int64
	failDials(t, func() { dials.Add(1) })
	c, err := Dial([]string{"127.0.0.1:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CheckNode(0); err == nil {
		t.Fatal("CheckNode over a failing dial succeeded")
	}
	if got := dials.Swap(0); got != 1 {
		t.Fatalf("CheckNode dialed %d times, want 1", got)
	}
	if _, err := c.Read(0, "k"); err == nil {
		t.Fatal("read over a failing dial succeeded")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("Read dialed %d times, want 1", got)
	}
}

// TestDegradedReadIsOneAttempt closes the server of a node holding a data
// block without telling the store — the window before the monitor
// confirms a death. The GET is rebuilt from the rest of the stripe, and
// the dead node is sent one attempt: the pooled sockets the PUT left
// fail unrecorded, the fresh dial fails once, and nothing retries it.
func TestDegradedReadIsOneAttempt(t *testing.T) {
	const nodes = 20
	cl := startCluster(t, nodes)
	s, err := store.New(store.Config{Backend: cl.client, Nodes: nodes, BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	obj := patternBytes(t, s.Codec().K()<<12)
	if err := s.Put("obj", obj); err != nil {
		t.Fatal(err)
	}
	x, _, err := s.BlockLocation("obj", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.kill(x)
	got, info, err := s.Get("obj")
	if err != nil {
		t.Fatalf("degraded GET: %v", err)
	}
	if !bytes.Equal(got, obj) || !info.Degraded {
		t.Fatalf("GET with node %d's server closed: byte-exact %v, degraded %v; want both", x, bytes.Equal(got, obj), info.Degraded)
	}
	if h := cl.client.NodeHealth()[x]; h.ConsecFails != 1 {
		t.Fatalf("node %d: %d failed attempts recorded for one op, want 1", x, h.ConsecFails)
	}
}

// TestProbeConnNotPooledAcrossSetNode re-addresses a node while its
// CheckNode probe is in flight: the old process holds its ping reply
// until SetNode has run. The probe's connection was dialed to the old
// address, so when the reply arrives it must be closed, not pooled — a
// pooled socket to the old process would serve the next operation on the
// "new" node.
func TestProbeConnNotPooledAcrossSetNode(t *testing.T) {
	pinged := make(chan struct{})
	release := make(chan struct{})
	hungUp := make(chan error, 1)
	old := scriptedNode(t, func(_ int, conn net.Conn) {
		close(pinged)
		<-release
		writeResponse(conn, statusOK, nil)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := conn.Read(make([]byte, 1))
		hungUp <- err
	})
	c := dialTest(t, old)
	n, err := c.node(0)
	if err != nil {
		t.Fatal(err)
	}
	probed := make(chan error, 1)
	go func() { probed <- c.CheckNode(0) }()
	<-pinged
	_, addr2 := startServer(t, store.NewMemBackend())
	if err := c.SetNode(0, addr2); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-probed; err != nil {
		t.Fatalf("probe: %v", err)
	}
	n.mu.Lock()
	idle := len(n.idle)
	n.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connection(s) to the old address pooled under the new one", idle)
	}
	if err := <-hungUp; !errors.Is(err, io.EOF) {
		t.Fatalf("old process's read after its reply: %v, want EOF (the client hung up)", err)
	}
}

// TestNodeHealthWindow checks the sliding-window accounting: operations
// land in WindowOps, failures in WindowErrRate, and latencies in the
// quantiles.
func TestNodeHealthWindow(t *testing.T) {
	_, addr := startServer(t, store.NewMemBackend())
	c := dialTest(t, addr)
	for i := 0; i < 10; i++ {
		if err := c.CheckNode(0); err != nil {
			t.Fatal(err)
		}
	}
	info := c.NodeHealth()[0]
	if info.WindowOps != 10 || info.WindowErrRate != 0 {
		t.Fatalf("window = %+v, want 10 ops, 0 errors", info)
	}
	if info.P99 < info.P50 {
		t.Fatalf("P99 %v < P50 %v", info.P99, info.P50)
	}
	if info.Node != 0 || info.LastErr != "" {
		t.Fatalf("info = %+v", info)
	}
}
