// The failure plane, end to end, with nobody at the keyboard: a 20-node
// loopback TCP fleet serves objects through the HTTP gateway while a
// chaos schedule kills a node process. The HealthMonitor's probes
// confirm the death (three missed beats, so one dropped packet never
// flips a node), repair drains automatically, the replacement process
// comes up empty and is re-marked alive, with only its own blocks
// re-checked — and the whole time, reads keep returning exact bytes. The
// monitor is the only failure detector: until it confirms the death a
// read pays one refused connection per block it asks of the dead node
// and rebuilds that block from the rest of its stripe; after that the
// store sends nothing to the node.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/chaos"
	"repro/internal/gateway"
	"repro/internal/netblock"
	"repro/internal/pattern"
	"repro/internal/store"
)

const (
	nodes     = 20
	blockSize = 16 << 10
	objSize   = 1 << 20 // 1 MiB
)

func main() {
	fmt.Println("== Self-healing: chaos schedule vs. health monitor ==")
	fmt.Printf("%d TCP block servers, death confirmed after 3 missed probes\n\n", nodes)

	cl, err := chaos.NewCluster(nodes, netblock.Options{
		DialTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	s, err := store.New(store.Config{
		Backend:   cl.Backend(),
		Nodes:     nodes,
		BlockSize: blockSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// One Start runs the repair workers and the monitor's probe round,
	// one Stop halts both; the monitor alone drives the scrubber's walks.
	rm := store.NewRepairManager(s, 2)
	sc := store.NewScrubber(s, rm, 0)
	store.NewHealthMonitor(s, sc, store.MonitorConfig{Interval: 25 * time.Millisecond})
	rm.Start()
	defer rm.Stop()

	g, err := gateway.New(gateway.Config{Store: s})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	// Seed an object through the front door.
	var want bytes.Buffer
	if _, err := want.ReadFrom(pattern.NewReader(objSize)); err != nil {
		log.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/t/acme/report", bytes.NewReader(want.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("seeded 1 MiB object via PUT: %s\n", resp.Status)

	// The chaos schedule: SIGKILL node 3 (listener and connections cut,
	// nothing cleaned up), no operator anywhere.
	const victim = 3
	fmt.Printf("\n-- chaos: killing node %d's process --\n", victim)
	if err := chaos.NewRunner(cl, chaos.Schedule{
		{At: 0, Node: victim, Op: chaos.OpKill},
	}).Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	// Reads keep working the whole time the node is dark: before the
	// monitor confirms the death a read pays one failed attempt per block
	// it asks of the dead node, after it the store reads around the node
	// without asking.
	suspectRead := getExact(srv.URL, want.Bytes())
	waitUntil("monitor confirms the death", func() bool { return s.Metrics().AutoDeaths >= 1 })
	deadRead := getExact(srv.URL, want.Bytes())
	fmt.Printf("degraded GET: %v before the monitor's verdict (one failed attempt per block on the node), %v after (node skipped)\n",
		suspectRead.Round(time.Millisecond), deadRead.Round(time.Millisecond))
	rm.Drain()
	m := s.Metrics()
	fmt.Printf("auto-death confirmed: AutoDeaths=%d, repair drained %d blocks (reading ~%.1f survivors each)\n",
		m.AutoDeaths, m.RepairedBlocks, float64(m.RepairBlocksRead)/float64(max(m.RepairedBlocks, 1)))

	// Replacement machine: fresh empty process on a new port. The monitor
	// needs two clean probes before trusting it (flap damping cuts both ways).
	fmt.Printf("\n-- chaos: restarting node %d with a blank disk --\n", victim)
	if err := chaos.NewRunner(cl, chaos.Schedule{
		{At: 0, Node: victim, Op: chaos.OpRestart},
	}).Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	// The counter, not Alive: the monitor counts a revival only after its
	// presence walk has queued the node's stripes, so the Drain below
	// cannot run ahead of them.
	waitUntil("monitor re-marks it alive", func() bool { return s.Metrics().AutoRevivals >= 1 })
	rm.Drain()
	m = s.Metrics()
	fmt.Printf("auto-revival: AutoRevivals=%d; a presence walk queued only the revived node's blocks for re-check\n", m.AutoRevivals)

	// The operator's view of all of the above: /healthz.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	var health struct {
		Status    string `json:"status"`
		LiveNodes int    `json:"live_nodes"`
		Nodes     []struct {
			Node      int  `json:"node"`
			Alive     bool `json:"alive"`
			WindowOps int  `json:"window_ops"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		log.Fatal(err)
	}
	hz.Body.Close()
	fmt.Printf("\n/healthz: status=%q live=%d/%d, node %d's window since the restart: %d ops\n",
		health.Status, health.LiveNodes, len(health.Nodes), victim, health.Nodes[victim].WindowOps)

	// Convergence: nothing left to fix, and the bytes never lied.
	rm.Drain()
	sc.ScrubOnce()
	rm.Drain()
	if rep := sc.ScrubOnce(); rep.Missing+rep.Corrupt > 0 {
		log.Fatalf("did not converge: %+v", rep)
	}
	fmt.Println("\nconverged: full scrub clean, every GET during the chaos window was byte-exact —")
	fmt.Println("death, repair, and revival all happened on probe evidence alone, no operator in the loop")
}

// getExact GETs the seeded object and verifies the bytes, returning the
// elapsed time.
func getExact(base string, want []byte) time.Duration {
	start := time.Now()
	resp, err := http.Get(base + "/t/acme/report")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !bytes.Equal(body, want) {
		log.Fatalf("GET not byte-exact: status=%d err=%v len=%d", resp.StatusCode, err, len(body))
	}
	return time.Since(start)
}

func waitUntil(what string, cond func() bool) {
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("%s ✓\n", what)
}
