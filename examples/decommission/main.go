// Node decommissioning as a scheduled repair (§1.1): Hadoop's
// decommission feature must copy a retiring node's data out before it
// leaves — "complicated and time consuming". This walkthrough drives the
// real store's elastic-membership path instead of a simulation: a node
// is marked draining, and each rebalance pass hands its stripes to the
// repair queue, whose pool empties it.
//
// Two scenarios per codec:
//
//   - live drain: the node still answers, so the repair worker's
//     re-probe reads each block and copies it to a new home — one block
//     read per block moved, identical for both codecs.
//
//   - dead drain (scheduled repair): the node is already gone when the
//     decommission lands, so every block is recreated from its stripe's
//     survivors. Here the codec decides the bill: the LRC rebuilds from
//     its 5-block repair group where RS(10,4) must read 10 blocks.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/store"
)

func main() {
	fmt.Println("decommissioning one node of 20 (32 objects, 64 KiB blocks):")
	fmt.Printf("  %-28s %-12s %8s %8s %12s %10s\n",
		"strategy", "scheme", "drained", "read", "reads/block", "elapsed")
	for _, mk := range []func() store.Codec{
		func() store.Codec { return store.NewRS104Codec() },
		func() store.Codec { return store.NewXorbasCodec() },
	} {
		for _, dead := range []bool{false, true} {
			run(mk(), dead)
		}
	}
	fmt.Println("\na live drain copies: one read per block, either codec.")
	fmt.Println("a dead drain repairs: the LRC's local groups read 5 blocks per")
	fmt.Println("rebuilt block where RS(10,4) reads 10 — decommission-as-repair")
	fmt.Println("is affordable exactly because repairs are local (§1.1).")
}

func run(codec store.Codec, dead bool) {
	s, err := store.New(store.Config{
		Codec:     codec,
		Backend:   store.NewMemBackend(),
		Nodes:     20,
		BlockSize: 64 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	payload := make([]byte, 640<<10) // 10 data blocks: one full stripe
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	for i := 0; i < 32; i++ {
		if err := s.Put(fmt.Sprintf("f%02d", i), payload); err != nil {
			log.Fatal(err)
		}
	}

	const victim = 7
	strategy := "live drain (copy-out)"
	if dead {
		strategy = "dead drain (sched. repair)"
		s.KillNode(victim)
	}
	if err := s.Decommission(victim); err != nil {
		log.Fatal(err)
	}

	rm := store.NewRepairManager(s, 4)
	rm.Start()
	rb := store.NewRebalancer(s, rm, 0)
	start := time.Now()
	for pass := 0; pass < 5; pass++ {
		rep := rb.RebalanceOnce()
		rm.Drain()
		if rep.Remaining == 0 {
			break
		}
	}
	elapsed := time.Since(start)
	rm.Stop()

	if st := s.MemberState(victim); st != store.NodeDead {
		log.Fatalf("drain did not complete: victim is %s", st)
	}
	var buf bytes.Buffer
	if _, err := s.GetWriter("f00", &buf); err != nil || !bytes.Equal(buf.Bytes(), payload) {
		log.Fatalf("data damaged by decommission: %v", err)
	}

	m := s.Metrics()
	drained := m.RebalancedBlocks + m.RepairedBlocks
	reads := m.RebalanceBlocksRead + m.RepairBlocksRead
	perBlock := float64(reads) / float64(drained)
	fmt.Printf("  %-28s %-12s %8d %8d %12.1f %10s\n",
		strategy, codec.Name(), drained, reads, perBlock, elapsed.Round(time.Millisecond))
}
