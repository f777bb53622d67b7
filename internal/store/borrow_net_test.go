package store_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/netblock"
	"repro/internal/pattern"
	"repro/internal/store"
)

// TestRepairSteadyStateAllocation pins what borrowing the sources buys
// over the real wire, so it cannot quietly stop: a store over a loopback
// netblock fleet, 1 MiB blocks, one repair worker. A first node kill and
// its repair drain warm the frame pool and size the worker's scratch;
// the repair of a later kill then allocates, process-wide, under
// 1 MiB + 128 KiB per rebuilt block — and that MiB is not the store's:
// it is the receive buffer of the in-process node the rebuilt block is
// written to, which the node keeps as the stored block. With every
// source a fresh make, as before the borrow, the same repair allocated
// about 6 MiB per block (five sources and that buffer).
func TestRepairSteadyStateAllocation(t *testing.T) {
	if store.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector, and its sync.Pool drops items at random")
	}
	if testing.Short() {
		t.Skip("stores 128 MiB on a loopback fleet; skipped with -short")
	}
	const nodes, bs, stripes = 24, 1 << 20, 8
	addrs := make([]string, nodes)
	for i := range addrs {
		srv, addr, err := netblock.StartLocal(store.NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	client, err := netblock.Dial(addrs, netblock.Options{DialTimeout: time.Second, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	s, err := store.New(store.Config{Backend: client, Nodes: nodes, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(stripes * s.Codec().K() * bs)
	if err := s.PutReader("r", pattern.NewReader(size)); err != nil {
		t.Fatal(err)
	}
	rm := store.NewRepairManager(s, 1)
	rm.Start()
	defer rm.Stop()
	sc := store.NewScrubber(s, rm, 0)
	// repairNode kills a node and drains its repair, returning the blocks
	// rebuilt and the bytes the whole process allocated meanwhile.
	repairNode := func(node int) (blocks, alloc int64) {
		var before, after runtime.MemStats
		rebuilt := s.Metrics().RepairedBlocks
		s.KillNode(node)
		runtime.ReadMemStats(&before)
		sc.ScrubPresence()
		rm.Drain()
		runtime.ReadMemStats(&after)
		return s.Metrics().RepairedBlocks - rebuilt, int64(after.TotalAlloc - before.TotalAlloc)
	}
	if blocks, _ := repairNode(0); blocks < 2 {
		t.Fatalf("warm-up kill rebuilt %d blocks, want at least the 2 that size both scratch slabs", blocks)
	}
	// The median of five kills: a sync.Pool keeps one item per P where no
	// other P can reach it, so the odd repair still misses until every P
	// has a frame, and one missed frame is a fifth of a small repair.
	const rounds = 5
	perBlock := make([]int64, rounds)
	for i := range perBlock {
		blocks, alloc := repairNode(1 + i)
		if blocks < 2 {
			t.Fatalf("kill %d rebuilt %d blocks: nothing to measure", 1+i, blocks)
		}
		perBlock[i] = alloc / blocks
	}
	sort.Slice(perBlock, func(i, j int) bool { return perBlock[i] < perBlock[j] })
	if per := perBlock[rounds/2]; per >= bs+128<<10 {
		t.Errorf("repair allocates %d bytes per rebuilt %d-byte block (per kill: %v), want under %d", per, bs, perBlock, bs+128<<10)
	}
	if rep := sc.ScrubOnce(); rep.Missing+rep.Corrupt+rep.Enqueued != 0 {
		t.Fatalf("scrub after the repairs: %+v", rep)
	}
}
