package chaos

import (
	"net"
	"testing"
	"time"

	"repro/internal/netblock"
	"repro/internal/store"
)

// TestReviveOnSameAddress stops one node's server for longer than the
// monitor needs to confirm the death, then brings it back on the address
// the client already holds — a process restarted in place, the common
// case (Cluster.Restart moves to a new port and repoints the client,
// which this must not rely on). The store must call the node alive
// within a few probe rounds: the monitor's streaks are the only failure
// detector, so nothing in the transport may hold back its probes after
// the node answers again.
func TestReviveOnSameAddress(t *testing.T) {
	const (
		nodes    = 4
		victim   = 2
		interval = 20 * time.Millisecond
		downFor  = 2 * time.Second
	)
	servers := make([]*netblock.Server, nodes)
	addrs := make([]string, nodes)
	for i := range servers {
		srv, addr, err := netblock.StartLocal(store.NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, addr
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})
	client, err := netblock.Dial(addrs, netblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s, err := store.New(store.Config{Backend: client, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mon := store.NewHealthMonitor(s, nil, nil, store.MonitorConfig{
		Interval:        interval,
		FailThreshold:   3,
		ReviveThreshold: 2,
	})
	mon.Start()
	defer mon.Stop()

	servers[victim].Close()
	down := time.Now()
	waitFor(t, 5*time.Second, "the monitor to confirm the death", func() bool { return !s.Alive(victim) })
	time.Sleep(time.Until(down.Add(downFor)))

	ln, err := net.Listen("tcp", addrs[victim])
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrs[victim], err)
	}
	servers[victim] = netblock.NewServer(store.NewMemBackend())
	go servers[victim].Serve(ln)
	back := time.Now()
	const limit = 10 * interval
	for !s.Alive(victim) {
		if d := time.Since(back); d > 5*time.Second {
			t.Fatalf("node %d not revived %v after it listened again on %s (limit %v)", victim, d, addrs[victim], limit)
		}
		time.Sleep(time.Millisecond)
	}
	d := time.Since(back)
	if d > limit {
		t.Fatalf("node %d revived %v after it listened again, want within %v (10 probe rounds)", victim, d, limit)
	}
	t.Logf("node %d revived %v after it listened again", victim, d)
}
