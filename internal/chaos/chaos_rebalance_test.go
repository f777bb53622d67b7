package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/netblock"
	"repro/internal/store"
)

// TestRebalanceUnderChurn is the elastic-membership acceptance scenario:
// a real loopback TCP fleet serves a store through the HTTP gateway
// under live PUT/GET traffic while a node is decommissioned and the paced
// repair pool drains it — and, mid-drain, another node is
// SIGKILLed and a brand-new node joins. Every read during the whole
// window must come back byte-exact or as a clean typed error; the drain
// must complete (the victim retires to dead with an empty disk); the
// joiner must fill and promote to active; and after convergence a
// presence walk finds zero orphans — every live disk holds exactly the
// blocks the manifests say it does.
func TestRebalanceUnderChurn(t *testing.T) {
	const nodes = 20
	cl, err := NewCluster(nodes, netblock.Options{
		DialTimeout: 250 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	s, err := store.New(store.Config{
		Backend:   cl.Backend(),
		Nodes:     nodes,
		BlockSize: 4 << 10,
		// Pace every block move hard enough that the drain is still in
		// flight when the kill and the join land on top of it.
		RepairRateBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rm := store.NewRepairManager(s, 2)
	sc := store.NewScrubber(s, rm, 0)
	store.NewHealthMonitor(s, sc, store.MonitorConfig{Interval: 20 * time.Millisecond})
	store.NewRebalancer(s, rm, 50*time.Millisecond)
	rm.Start()
	defer rm.Stop()

	g, err := gateway.New(gateway.Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	// Seed objects through the front door.
	const objSize = 48 << 10
	want := patternBytes(t, objSize)
	seeded := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range seeded {
		if code := httpPut(t, srv.URL+"/t/acme/"+k, want); code != 200 {
			t.Fatalf("seed put %q = %d", k, code)
		}
	}

	// Live traffic for the whole scenario, same contract as the
	// self-healing test: reads byte-exact or cleanly typed, acked
	// writes verified at the end.
	stop := make(chan struct{})
	var badReads atomic.Int64
	var firstBad atomic.Value
	var acked sync.Map
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cli := &http.Client{Timeout: 30 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := seeded[(r+i)%len(seeded)]
				resp, err := cli.Get(srv.URL + "/t/acme/" + k)
				if err != nil {
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == 200:
					if rerr != nil {
						continue
					}
					if !bytes.Equal(body, want) {
						badReads.Add(1)
						firstBad.CompareAndSwap(nil, fmt.Sprintf("GET %s: 200 with %d wrong/truncated bytes", k, len(body)))
					}
				case resp.StatusCode == 503 || resp.StatusCode == 500:
					// Clean typed degradation.
				default:
					badReads.Add(1)
					firstBad.CompareAndSwap(nil, fmt.Sprintf("GET %s: unexpected status %d", k, resp.StatusCode))
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("w%03d", i)
			if code := httpPut(t, srv.URL+"/t/acme/"+name, want); code == 200 {
				acked.Store(name, true)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Decommission under traffic: the paced background rebalance starts
	// draining the victim.
	const victim = 5
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}

	// Mid-drain churn: SIGKILL an unrelated node, then grow the cluster
	// by one — the exact double-event the rebalancer must absorb.
	const killed = 11
	if err := NewRunner(cl, Schedule{
		{At: 100 * time.Millisecond, Node: killed, Op: OpKill},
	}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	addr, err := cl.StartNode()
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := s.AddNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	if joiner != nodes {
		t.Fatalf("joiner id = %d, want %d", joiner, nodes)
	}

	// The monitor must confirm the kill on its own; the drain and the
	// fill must both complete despite it.
	waitFor(t, 15*time.Second, "auto-death of killed node", func() bool { return !s.Alive(killed) })
	waitFor(t, 60*time.Second, "drain completion", func() bool {
		return s.MemberState(victim) == store.NodeDead
	})
	waitFor(t, 60*time.Second, "joiner promotion", func() bool {
		return s.MemberState(joiner) == store.NodeActive
	})

	// Traffic ran across the whole churn window; now land it.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := badReads.Load(); n > 0 {
		t.Fatalf("%d corrupt/unclean reads during churn; first: %v", n, firstBad.Load())
	}

	// Convergence: repairs drained, scrub clean, and nothing left to
	// migrate.
	rm.Drain()
	sc.ScrubOnce()
	rm.Drain()
	if rep := sc.ScrubOnce(); rep.Missing != 0 || rep.Corrupt != 0 {
		t.Fatalf("cluster did not converge: scrub found %+v", rep)
	}
	ms := s.MembershipStatus()
	if ms.Draining != 0 || ms.DrainingBlocks != 0 {
		t.Fatalf("drain incomplete after convergence: %+v", ms)
	}
	if ms.RebalancedBlocks == 0 {
		t.Fatal("no blocks were migrated — the rebalance never ran")
	}

	// Zero orphans: every live disk holds exactly the blocks the
	// manifests place there, the drained disk emptied before its server
	// retired, and no manifest still references a gone node. PUTs that
	// failed during the churn left their blocks to the reclaimer, so
	// drain it first; only the killed node can still refuse its deletes.
	if err := s.Reclaim(); err != nil {
		t.Logf("reclaim left blocks pending: %v", err)
	}
	counts := s.BlocksPerNode()
	for n := 0; n < s.Nodes(); n++ {
		if !s.Alive(n) {
			continue
		}
		if got := cl.BlockCount(n); got != counts[n] {
			t.Errorf("node %d: disk holds %d blocks, manifests place %d (orphan or loss)", n, got, counts[n])
		}
	}
	if got := cl.BlockCount(victim); got != 0 {
		t.Errorf("drained node %d retired with %d blocks still on disk", victim, got)
	}
	if counts[victim] != 0 {
		t.Errorf("manifests still place %d blocks on drained node %d", counts[victim], victim)
	}
	if counts[killed] != 0 {
		t.Errorf("manifests still place %d blocks on killed node %d", counts[killed], killed)
	}
	if counts[joiner] == 0 {
		t.Error("joiner promoted to active with an empty disk — the fill never happened")
	}

	// Every acked write reads back byte-exact on the post-churn topology.
	ackedCount := 0
	acked.Range(func(k, _ any) bool {
		ackedCount++
		name := k.(string)
		var buf bytes.Buffer
		if _, err := s.GetWriter("acme/"+name, &buf); err != nil {
			t.Fatalf("acked write %q unreadable: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("acked write %q read back wrong bytes", name)
		}
		return true
	})
	t.Logf("converged: %d acked puts verified, joiner holds %d blocks, status %+v",
		ackedCount, counts[joiner], ms)
}

// TestReopenGrownFleet: a store mounted on the harness grows the fleet
// by one node, closes, and reopens over the same harness. The fault
// layer reports the netblock client's node count, so recovery knows the
// joiner is already registered and registers it no second time.
func TestReopenGrownFleet(t *testing.T) {
	const nodes = 20
	cl, err := NewCluster(nodes, netblock.Options{
		DialTimeout: 250 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cfg := store.Config{Backend: cl.Backend(), Nodes: nodes, BlockSize: 4 << 10, MetaDir: t.TempDir()}
	s, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := cl.StartNode()
	if err != nil {
		t.Fatal(err)
	}
	if id, err := s.AddNode(addr); err != nil || id != nodes {
		t.Fatalf("AddNode = %d, %v; want node %d", id, err, nodes)
	}
	want := patternBytes(t, 48<<10)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.New(cfg)
	if err != nil {
		t.Fatalf("reopen over the grown fleet: %v", err)
	}
	defer s2.Close()
	if got, n := s2.Nodes(), cl.Client().Nodes(); got != nodes+1 || n != nodes+1 {
		t.Fatalf("after reopen: store spans %d nodes, client %d; want %d each", got, n, nodes+1)
	}
	if got, _, err := s2.Get("obj"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after reopen: err %v, byte-exact %v", err, bytes.Equal(got, want))
	}
}
