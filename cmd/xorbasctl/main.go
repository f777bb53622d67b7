// Command xorbasctl drives the paper's codes on real bytes through the
// object store in repro/internal/store — a single-machine stand-in for
// an HDFS-Xorbas cluster (§3.1).
//
// The `store` subcommands (see store.go) run the multi-node store over
// one directory; each simulated DataNode's blocks are plain files under
// <dir>/blocks/nodeNNN/, so they can be deleted or corrupted by hand and
// rebuilt by `store scrub` / `store repair-drain`:
//
//	xorbasctl store put|get|kill-node|revive-node|corrupt|scrub|repair-drain|stats [flags]
//
// The `node` subcommands (see node.go) run one block-server process over
// TCP; `store -backend net -nodes a:7001,b:7002,...` drives a cluster of
// them:
//
//	xorbasctl node serve -dir DIR -listen ADDR
//	xorbasctl node ping -nodes a:7001,b:7002,...
//	xorbasctl node add|decommission|status|rebalance [flags]
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "store":
		err = storeMain(os.Args[2:])
	case "node":
		err = nodeMain(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xorbasctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xorbasctl store put|get|kill-node|revive-node|corrupt|scrub|repair-drain|stats [flags]")
	fmt.Fprintln(os.Stderr, "       xorbasctl node serve|ping|add|decommission|status|rebalance [flags]")
	os.Exit(2)
}
