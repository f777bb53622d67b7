package store_test

import (
	"fmt"
	"io"
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

// TestBorrowColdScanAllocation pins what borrowing a GET's declined
// blocks buys: a store over a loopback netblock fleet, 64 KiB blocks, a
// 4 MiB cache, and a GET scan cycling over three times that. After the
// first pass has filled the cache and the second has warmed the frame
// pool, a pass allocates, process-wide, less than one block per GET —
// where each GET wants k blocks, and allocated every one of them while
// the cache took each miss in case it came back.
func TestBorrowColdScanAllocation(t *testing.T) {
	if store.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector, and its sync.Pool drops items at random")
	}
	if testing.Short() {
		t.Skip("scans 40 MiB through a loopback fleet; skipped with -short")
	}
	const nodes, bs = 20, 64 << 10
	const budget = 16 * 4 * bs
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
	s, err := store.New(store.Config{Backend: client, Nodes: nodes, BlockSize: bs, CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(s.Codec().K() * bs)
	objects := int(3*budget/size) + 1
	for i := 0; i < objects; i++ {
		if err := s.PutReader(fmt.Sprintf("cold%02d", i), pattern.NewReader(size)); err != nil {
			t.Fatal(err)
		}
	}
	// pass reads every object once and returns the bytes the whole
	// process allocated per GET meanwhile.
	pass := func() int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < objects; i++ {
			if info, err := s.GetWriter(fmt.Sprintf("cold%02d", i), io.Discard); err != nil || info.BytesWritten != size {
				t.Fatalf("GET cold%02d: %d bytes, err %v", i, info.BytesWritten, err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / int64(objects)
	}
	pass()
	pass()
	// The median of five passes, as a sync.Pool keeps frames per P.
	const rounds = 5
	perGet := make([]int64, rounds)
	for i := range perGet {
		perGet[i] = pass()
	}
	sort.Slice(perGet, func(i, j int) bool { return perGet[i] < perGet[j] })
	if per := perGet[rounds/2]; per >= bs {
		t.Errorf("a cold GET allocates %d bytes (per pass: %v), want under one %d-byte block", per, perGet, bs)
	}
	if m := s.Metrics(); m.CacheHits != 0 {
		t.Errorf("the cold scan hit the cache %d times", m.CacheHits)
	}
}
