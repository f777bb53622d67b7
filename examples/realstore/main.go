// Real bytes through the Xorbas datapath: this walkthrough runs the same
// node-failure story as the Section 5 experiments, but on the byte-level
// object store (repro/internal/store) instead of the fluid simulation —
// ingest, rack-aware placement, a node kill, degraded reads, and the
// scrubber + prioritized repair queue rebuilding the lost blocks. The
// punchline matches Figs 4–6: for every block lost, the LRC's light
// decoder reads r=5 blocks where RS(10,4) reads k=10, so LRC repair
// traffic is half of RS on identical damage.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"

	"repro/internal/pattern"
	"repro/internal/store"
)

const (
	objectSize = 4 << 20 // 4 MiB: 7 stripes of 10×64 KiB
	nodes      = 24
	racks      = 8
)

type result struct {
	name         string
	repaired     int64
	repairBlocks int64
	repairBytes  int64
}

func main() {
	fmt.Println("== A real object store on the paper's codes ==")
	fmt.Printf("object: %d MiB, %d nodes, %d racks, 64 KiB blocks\n\n", objectSize>>20, nodes, racks)
	rng := rand.New(rand.NewSource(42))
	payload := make([]byte, objectSize)
	rng.Read(payload)

	var results []result
	for _, codec := range []store.Codec{store.NewRS104Codec(), store.NewXorbasCodec()} {
		results = append(results, run(codec, payload))
	}

	fmt.Println("\n== Repair traffic on the real datapath (one node killed) ==")
	fmt.Printf("  %-14s %12s %14s %16s\n", "code", "blocks fixed", "blocks read", "bytes read")
	for _, r := range results {
		fmt.Printf("  %-14s %12d %14d %16d\n", r.name, r.repaired, r.repairBlocks, r.repairBytes)
	}
	rs, lrc := results[0], results[1]
	if lrc.repaired > 0 && rs.repaired > 0 {
		perLRC := float64(lrc.repairBytes) / float64(lrc.repaired)
		perRS := float64(rs.repairBytes) / float64(rs.repaired)
		fmt.Printf("\nper lost block: LRC reads %.0f bytes, RS reads %.0f — %.2fx less traffic\n",
			perLRC, perRS, perRS/perLRC)
		fmt.Println("(the paper's locality win, measured in real bytes instead of simulated flows)")
	}

	streaming()
}

// streaming is the second act: a 256 MiB object — four times the heap
// the runtime is allowed — moves through PutReader/GetWriter on a disk
// backend one stripe at a time, the paper's multi-GB HDFS blocks scaled
// to a walkthrough. The buffered Put/Get would need the whole object
// resident; the streaming path needs one 10 MiB stripe.
func streaming() {
	const (
		memLimit   = 64 << 20
		objectSize = 256 << 20
	)
	fmt.Printf("\n== Streaming a larger-than-heap object (GOMEMLIMIT %d MiB, object %d MiB) ==\n",
		memLimit>>20, objectSize>>20)
	old := debug.SetMemoryLimit(memLimit)
	defer debug.SetMemoryLimit(old)

	dir, err := os.MkdirTemp("", "realstore-stream-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	be, err := store.NewDirBackend(dir)
	if err != nil {
		log.Fatal(err)
	}
	// The manifests live in a write-ahead-logged metadata plane next to
	// the blocks: every put below is durable the moment it returns, and
	// act three reopens the store from it.
	metaDir := dir + "-meta"
	defer os.RemoveAll(metaDir)
	s, err := store.New(store.Config{Nodes: nodes, Racks: racks, Backend: be, BlockSize: 1 << 20, MetaDir: metaDir})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.PutReader("elephant", pattern.NewReader(objectSize)); err != nil {
		log.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("put: %d MiB streamed to disk; heap in use %d MiB (object never resident)\n",
		objectSize>>20, ms.HeapInuse>>20)

	// Kill a node and stream the object back degraded: every single-loss
	// stripe is rebuilt by the light decoder mid-stream.
	victim, _, err := s.BlockLocation("elephant", 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	s.KillNode(victim)
	v := &pattern.Verifier{}
	info, err := s.GetWriter("elephant", v)
	if err != nil {
		log.Fatal(err)
	}
	if v.N != objectSize {
		log.Fatalf("streamed %d bytes, want %d", v.N, objectSize)
	}
	runtime.ReadMemStats(&ms)
	fmt.Printf("node %d killed; degraded streaming read: byte-exact, %d light / %d heavy inline repairs\n",
		victim, info.LightRepairs, info.HeavyRepairs)
	fmt.Printf("read %d blocks / %d MiB; heap in use %d MiB, peak sys %d MiB — bounded by stripes, not the object\n",
		info.BlocksRead, info.BytesRead>>20, ms.HeapInuse>>20, ms.HeapSys>>20)

	// Act three: restart. Close checkpoints the metadata plane, so the
	// reopened store recovers every manifest — and the node death, and
	// the geometry it was created with — from it directly: no WAL
	// replay, no walk over 256 MiB of blocks.
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}
	s2, err := store.New(store.Config{Backend: be, MetaDir: metaDir})
	if err != nil {
		log.Fatal(err)
	}
	defer s2.Close()
	objects, replayed := s2.MetaRecovered()
	v2 := &pattern.Verifier{}
	if _, err := s2.GetWriter("elephant", v2); err != nil || v2.N != objectSize {
		log.Fatalf("read after restart: %v (%d bytes)", err, v2.N)
	}
	fmt.Printf("restart: %d manifest(s) recovered from the metadata plane (%d WAL records replayed), "+
		"node %d still dead, object byte-exact\n", objects, replayed, victim)
}

func run(codec store.Codec, payload []byte) result {
	s, err := store.New(store.Config{Codec: codec, Nodes: nodes, Racks: racks})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- %s --\n", codec.Name())
	if err := s.Put("warehouse-table", payload); err != nil {
		log.Fatal(err)
	}
	m := s.Metrics()
	fmt.Printf("put: %d blocks / %d bytes written (%.1fx of the payload stored)\n",
		m.PutBlocks, m.PutBytes, float64(m.PutBytes)/float64(len(payload)))

	// Kill the node holding stripe 0's block X3 (a §5.2 DataNode
	// termination), then read while the store is degraded.
	victim, _, err := s.BlockLocation("warehouse-table", 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	s.KillNode(victim)
	got, info, err := s.Get("warehouse-table")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("degraded read returned wrong bytes")
	}
	fmt.Printf("node %d killed; degraded read: byte-exact, %d light / %d heavy inline repairs\n",
		victim, info.LightRepairs, info.HeavyRepairs)

	// The BlockFixer: scrub finds the dead node's blocks, the prioritized
	// queue rebuilds them onto live nodes.
	rm := store.NewRepairManager(s, 3)
	rm.Start()
	defer rm.Stop()
	sc := store.NewScrubber(s, rm, 0)
	rep := sc.ScrubOnce()
	rm.Drain()
	m = s.Metrics()
	fmt.Printf("scrub: %d stripes, %d blocks missing; repair: %d rebuilt (%d light / %d heavy)\n",
		rep.Stripes, rep.Missing, m.RepairedBlocks, m.RepairsLight, m.RepairsHeavy)
	if got, info, err = s.Get("warehouse-table"); err != nil || !bytes.Equal(got, payload) || info.Degraded {
		log.Fatal("post-repair read not clean")
	}
	fmt.Println("post-repair read: clean")

	return result{
		name:         codec.Name(),
		repaired:     m.RepairedBlocks,
		repairBlocks: m.RepairBlocksRead,
		repairBytes:  m.RepairBytesRead,
	}
}
