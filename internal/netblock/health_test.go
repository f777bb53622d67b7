package netblock

import (
	"errors"
	"io"
	"net"
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

// TestBreakerOpensAndFailsFast drives a dead node to the failure
// threshold and checks that further operations fail locally in
// ErrBreakerOpen without burning a dial timeout each.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	addr := closedPort(t)
	c, err := Dial([]string{addr}, Options{
		DialTimeout:      200 * time.Millisecond,
		Retries:          -1, // one attempt per op: threshold arithmetic stays exact
		RetryBackoff:     -1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // never half-opens during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Ping(0); err == nil {
			t.Fatal("ping of a closed port succeeded")
		} else if errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("breaker open after %d failures, threshold is 3", i+1)
		}
	}
	start := time.Now()
	err = c.Ping(0)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen after threshold, got: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("open breaker took %v to answer; want a local fast-fail", d)
	}
	infos := c.NodeHealth()
	if len(infos) != 1 || infos[0].State != "open" {
		t.Fatalf("NodeHealth = %+v, want one open node", infos)
	}
	if infos[0].Opens != 1 || infos[0].ConsecFails < 3 {
		t.Fatalf("NodeHealth counters = %+v", infos[0])
	}
}

// TestBreakerHalfOpenRecovery opens a node's breaker, brings the node
// back, and checks the half-open probe closes the breaker so real
// operations flow again — zero operator action.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	addr := closedPort(t)
	c, err := Dial([]string{addr}, Options{
		DialTimeout:        200 * time.Millisecond,
		Retries:            -1,
		RetryBackoff:       -1,
		BreakerThreshold:   2,
		BreakerCooldown:    50 * time.Millisecond,
		BreakerMaxCooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		if err := c.Ping(0); err == nil {
			t.Fatal("ping of a closed port succeeded")
		}
	}
	if err := c.Ping(0); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got: %v", err)
	}

	// Bring the node up on the same address the client already has.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv := NewServer(store.NewMemBackend())
	go srv.Serve(ln)
	defer srv.Close()

	// Within the cooldown the breaker still fails fast; once it elapses
	// the next operation is the half-open probe and must succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Ping(0)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("unexpected error during recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after the node came back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.NodeHealth()[0].State; got != "closed" {
		t.Fatalf("breaker state after recovery = %q, want closed", got)
	}
	// A real operation (with a payload) works too.
	if err := c.Write(0, "k", store.FrameBlock([]byte("back"))); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestRetryBackoffSleeps checks the satellite fix: retry attempts
// against a down node are spaced by the jittered backoff instead of
// hammering back-to-back.
func TestRetryBackoffSleeps(t *testing.T) {
	addr := closedPort(t)
	c, err := Dial([]string{addr}, Options{
		DialTimeout:      100 * time.Millisecond,
		Retries:          2,
		RetryBackoff:     40 * time.Millisecond,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(0); err == nil {
		t.Fatal("ping of a closed port succeeded")
	}
	// Three attempts with sleeps of jitter(40ms) + jitter(80ms) between
	// them: at least (40+80)/2 = 60ms of deliberate spacing (dials to a
	// closed loopback port fail in microseconds).
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("3 attempts finished in %v; retries are not backing off", d)
	}
}

// TestRetryBudgetDeadline checks that the retry wall-time cap cuts the
// attempt loop short: a generous retry count cannot hold a caller past
// the budget.
func TestRetryBudgetDeadline(t *testing.T) {
	addr := closedPort(t)
	c, err := Dial([]string{addr}, Options{
		DialTimeout:      100 * time.Millisecond,
		Retries:          1000,
		RetryBackoff:     50 * time.Millisecond,
		RetryBudget:      200 * time.Millisecond,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(0); err == nil {
		t.Fatal("ping of a closed port succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("budgeted operation took %v; deadline is not capping retries", d)
	}
}

// TestSetNodeResetsBreaker checks that repointing a node clears its
// failure history — the new process starts with a closed breaker.
func TestSetNodeResetsBreaker(t *testing.T) {
	addr := closedPort(t)
	c, err := Dial([]string{addr}, Options{
		DialTimeout:      200 * time.Millisecond,
		Retries:          -1,
		RetryBackoff:     -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		c.Ping(0)
	}
	if err := c.Ping(0); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got: %v", err)
	}
	_, addr2 := startServer(t, store.NewMemBackend())
	if err := c.SetNode(0, addr2); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeHealth()[0].State; got != "closed" {
		t.Fatalf("breaker state after SetNode = %q, want closed", got)
	}
	if err := c.Ping(0); err != nil {
		t.Fatalf("ping after SetNode: %v", err)
	}
}

// TestProbeConnNotPooledAcrossSetNode re-addresses a node while its
// half-open probe is in flight: the old process holds its ping reply
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
	go func() { probed <- c.attempt(n, 0) }()
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
		if err := c.Ping(0); err != nil {
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
