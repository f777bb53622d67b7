package main

// The `node` subcommand runs one block-server process: the network
// counterpart of a DataNode. Its storage is a plain DirBackend directory
// (the same layout `store -backend dir` writes), served over the
// netblock TCP protocol, so a store driven with `-backend net` reads and
// writes real sockets while each node keeps shell-inspectable files.
//
//	xorbasctl node serve -dir DIR -listen ADDR
//
// The process serves until SIGINT/SIGTERM, then stops hard (in-flight
// requests are cut, never half-acknowledged — the store's CRC frames and
// crash-safe block writes make that safe).
//
// `node ping` probes every node of a cluster once and prints the
// per-node failure-plane view — what a HealthMonitor over the same
// addresses would see:
//
//	xorbasctl node ping -nodes a:7001,b:7002,...
//
// The membership subcommands drive elastic cluster changes against a
// store directory (same -dir/-backend/-meta flags as `store`):
//
//	xorbasctl node add          -dir DIR [-addr HOST:PORT]
//	xorbasctl node decommission -dir DIR -node N
//	xorbasctl node status       -dir DIR
//	xorbasctl node rebalance    -dir DIR [-workers W] [-repair-rate B]
//
// add registers one new node (joining until a rebalance pass fills it;
// -addr is required for the net backend, recorded in the membership
// plane so later opens re-register it); decommission marks a node
// draining — the next rebalance queues its blocks for the repair pool,
// which copies them off (or rebuilds them when the node is dead), and
// only when zero manifest blocks reference it does it retire to dead.
// rebalance runs synchronous passes, each drained, until the drain/fill
// converges, the operator-driven counterpart of xorbasd's
// -rebalance-interval loop; -repair-rate paces every block it moves.

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/netblock"
	"repro/internal/store"
)

func nodeUsage() {
	fmt.Fprintln(os.Stderr, "usage: xorbasctl node serve -dir DIR -listen ADDR")
	fmt.Fprintln(os.Stderr, "       xorbasctl node ping -nodes ADDR,ADDR,...")
	fmt.Fprintln(os.Stderr, "       xorbasctl node add -dir DIR [-addr HOST:PORT]")
	fmt.Fprintln(os.Stderr, "       xorbasctl node decommission -dir DIR -node N")
	fmt.Fprintln(os.Stderr, "       xorbasctl node status -dir DIR")
	fmt.Fprintln(os.Stderr, "       xorbasctl node rebalance -dir DIR [-workers W] [-repair-rate B]")
	os.Exit(2)
}

// nodePing dials the listed nodes, probes each up to -probes times with
// the HealthMonitor's probe (CheckNode: one ping on a fresh connection),
// and prints liveness plus the outcome window per node. A node is down
// when every probe failed; exit status 1 when any node is down, so
// scripts can gate on it.
func nodePing(args []string) error {
	fs := flag.NewFlagSet("node ping", flag.ExitOnError)
	nodesFlag := fs.String("nodes", "", "comma-separated node addresses")
	probes := fs.Int("probes", 3, "pings per node")
	timeout := fs.Duration("timeout", 2*time.Second, "per-probe dial timeout")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *nodesFlag == "" {
		return fmt.Errorf("node ping needs -nodes")
	}
	addrs := strings.Split(*nodesFlag, ",")
	c, err := netblock.Dial(addrs, netblock.Options{DialTimeout: *timeout})
	if err != nil {
		return err
	}
	defer c.Close()
	// The status column and the exit code both read up, not the client's
	// error window, which still holds the probes that failed first.
	up := make([]bool, len(addrs))
	down := 0
	for i := range addrs {
		for p := 0; p < *probes && !up[i]; p++ {
			up[i] = c.CheckNode(i) == nil
		}
		if !up[i] {
			down++
		}
	}
	for _, info := range c.NodeHealth() {
		status := "down"
		if up[info.Node] {
			status = "up"
		}
		fmt.Printf("node %2d  %-22s %-4s ops=%d errRate=%.2f consecFails=%d p50=%s p99=%s",
			info.Node, addrs[info.Node], status, info.WindowOps, info.WindowErrRate, info.ConsecFails, info.P50, info.P99)
		if info.LastErr != "" {
			fmt.Printf("  lastErr=%q", info.LastErr)
		}
		fmt.Println()
	}
	if down > 0 {
		return fmt.Errorf("%d of %d nodes down", down, len(addrs))
	}
	return nil
}

// nodeAdd grows the cluster by one member: the store assigns the next
// id, persists the record (joining, addr) in the metadata plane, and a
// NodeAdder backend (netblock) registers the address for the datapath.
func nodeAdd(args []string) error {
	fs := flag.NewFlagSet("node add", flag.ExitOnError)
	sf := cliutil.RegisterStoreFlags(fs)
	addr := fs.String("addr", "", "new node's host:port (net backend; dir backend needs none)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		return err
	}
	id, err := s.AddNode(*addr)
	if err != nil {
		s.Close()
		return err
	}
	fmt.Printf("node %d added (joining, epoch %d); run `node rebalance` or let xorbasd's -rebalance-interval fill it\n", id, s.Epoch())
	return s.Close()
}

// nodeDecommission marks a node draining; its retirement to dead is the
// rebalancer's call, made only once nothing references it.
func nodeDecommission(args []string) error {
	fs := flag.NewFlagSet("node decommission", flag.ExitOnError)
	sf := cliutil.RegisterStoreFlags(fs)
	node := fs.Int("node", -1, "node id to drain")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *node < 0 {
		return fmt.Errorf("node decommission needs -node")
	}
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		return err
	}
	if err := s.Decommission(*node); err != nil {
		s.Close()
		return err
	}
	ms := s.MembershipStatus()
	fmt.Printf("node %d draining (epoch %d): %d blocks to move; run `node rebalance` to drain now\n",
		*node, s.Epoch(), ms.DrainingBlocks)
	return s.Close()
}

// nodeStatus prints the membership table and drain/fill progress.
func nodeStatus(args []string) error {
	fs := flag.NewFlagSet("node status", flag.ExitOnError)
	sf := cliutil.RegisterStoreFlags(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		return err
	}
	defer s.Close()
	ms := s.MembershipStatus()
	fmt.Printf("epoch %d: %d active / %d joining / %d draining / %d dead\n",
		ms.Epoch, ms.Active, ms.Joining, ms.Draining, ms.Dead)
	if ms.Draining > 0 {
		fmt.Printf("drain backlog: %d blocks\n", ms.DrainingBlocks)
	}
	if ms.RebalancedBlocks > 0 {
		fmt.Printf("migrated so far: %d blocks / %d bytes\n", ms.RebalancedBlocks, ms.RebalancedBytes)
	}
	counts := s.BlocksPerNode()
	for _, m := range s.Members() {
		live := "up"
		if !m.Alive {
			live = "down"
		}
		blocks := 0
		if m.Node < len(counts) {
			blocks = counts[m.Node]
		}
		addr := m.Addr
		if addr == "" {
			addr = "-"
		}
		fmt.Printf("node %2d  %-22s %-8s %-4s blocks=%d epoch=%d\n",
			m.Node, addr, string(m.State), live, blocks, m.Epoch)
	}
	return nil
}

// nodeRebalance runs synchronous rebalance passes, each followed by a
// drain of the repair queue, until the topology converges: drainers
// emptied (their blocks copied off, or rebuilt when unreadable), joiners
// filled, promotions made.
func nodeRebalance(args []string) error {
	fs := flag.NewFlagSet("node rebalance", flag.ExitOnError)
	sf := cliutil.RegisterStoreFlags(fs)
	workers := fs.Int("workers", 2, "repair worker pool size (drain copies and rebuilds)")
	repairRate := fs.Int64("repair-rate", 0, "read budget of every block move in bytes/sec, 0 = unlimited")
	passes := fs.Int("max-passes", 10, "pass limit before giving up on convergence")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	s, err := sf.Open(cliutil.Rates{Repair: *repairRate})
	if err != nil {
		return err
	}
	before := s.Metrics()
	rm := store.NewRepairManager(s, *workers)
	rm.Start()
	rb := store.NewRebalancer(s, rm, 0)
	start := time.Now()
	queued, promoted, converged := 0, 0, 0
	for p := 1; p <= *passes && converged == 0; p++ {
		rep := rb.RebalanceOnce()
		rm.Drain()
		queued += rep.Enqueued
		promoted += rep.Promoted
		if rep.Remaining == 0 && rep.Enqueued == 0 {
			converged = p
		}
	}
	rm.Stop()
	elapsed := time.Since(start)
	m := s.Metrics()
	copied, copiedBytes := m.RebalancedBlocks-before.RebalancedBlocks, m.RebalancedBytes-before.RebalancedBytes
	rebuilt, rebuiltBytes := m.RepairedBlocks-before.RepairedBlocks, m.RepairedBytes-before.RepairedBytes
	fmt.Printf("rebalance: %d blocks / %d bytes copied, %d blocks / %d bytes rebuilt, %d stripes queued, %d promotions, in %v (%s)\n",
		copied, copiedBytes, rebuilt, rebuiltBytes, queued, promoted,
		elapsed.Round(time.Millisecond), cliutil.Mbps(copiedBytes+rebuiltBytes, elapsed))
	fmt.Printf("reads: joiner fill %d blocks / %d bytes, repair %d blocks / %d bytes (%d light / %d heavy)\n",
		m.RebalanceBlocksRead-before.RebalanceBlocksRead, m.RebalanceBytesRead-before.RebalanceBytesRead,
		m.RepairBlocksRead-before.RepairBlocksRead, m.RepairBytesRead-before.RepairBytesRead,
		m.RepairsLight-before.RepairsLight, m.RepairsHeavy-before.RepairsHeavy)
	fmt.Print(cliutil.WireLine(m))
	if converged == 0 {
		fmt.Println("warning: topology not converged; rerun (dead drainers need live survivors to rebuild from)")
	} else {
		fmt.Printf("converged in %d passes\n", converged)
	}
	return s.Close()
}

func nodeMain(args []string) error {
	if len(args) == 0 {
		nodeUsage()
	}
	switch args[0] {
	case "ping":
		return nodePing(args[1:])
	case "add":
		return nodeAdd(args[1:])
	case "decommission":
		return nodeDecommission(args[1:])
	case "status":
		return nodeStatus(args[1:])
	case "rebalance":
		return nodeRebalance(args[1:])
	}
	if args[0] != "serve" {
		nodeUsage()
	}
	fs := flag.NewFlagSet("node serve", flag.ExitOnError)
	dir := fs.String("dir", "", "block directory this node serves")
	// Loopback by default: the protocol is unauthenticated, so exposing a
	// node beyond the host is an explicit operator choice (-listen :7001).
	listen := fs.String("listen", "127.0.0.1:7001", "TCP address to listen on")
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	if *dir == "" {
		return fmt.Errorf("node serve needs -dir")
	}
	be, err := store.NewDirBackend(*dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := netblock.NewServer(be)
	srv.Logf = log.Printf
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "node: shutting down")
		srv.Close()
	}()
	fmt.Printf("node: serving %s on %s\n", *dir, ln.Addr())
	return srv.Serve(ln)
}
