package main

// The `store` subcommands drive repro/internal/store: a persistent
// multi-node object store living in one directory, with each simulated
// DataNode as a subdirectory of <dir>/blocks and everything else — the
// manifests, the membership table, node deaths, the geometry the store
// was created with — in the metadata plane at <dir>/meta. Node deaths
// survive across invocations, so a kill-node / get / scrub sequence
// shows degraded reads and the BlockFixer's light repairs on real bytes.
//
//	xorbasctl store put        -dir DIR -in FILE [-name NAME] [-code rs] [-nodes N] [-racks R] [-block BYTES]
//	xorbasctl store get        -dir DIR -name NAME [-out FILE]
//
// put and get move the object one stripe at a time, so memory stays
// bounded no matter the object size. `-in -` reads stdin; `-out -`
// writes stdout and moves the summary to stderr; get with no -out reads
// the object, discards the bytes and prints only the summary.
//
// Every data command also takes `-backend net -nodes a:7001,b:7002,...`:
// blocks then live on real node processes (`xorbasctl node serve`)
// reached over TCP instead of subdirectories, with one address per store
// node, and the summaries include the wire traffic. The metadata plane
// stays under -dir either way. With the default `-backend dir`, -nodes
// is the simulated node count of a new store.
//
// The plane (internal/meta) is write-ahead logged: an acked put survives
// kill -9 and a reopen recovers from checkpoint + WAL replay. `-meta DIR`
// puts it somewhere other than <dir>/meta; the store directory remembers
// the choice, so later invocations need not repeat it. The first put
// creates the store and records its geometry (-code, -nodes, -racks,
// -block) in the plane; every later open reads it back from there.
//
//	xorbasctl store kill-node  -dir DIR -node N
//	xorbasctl store revive-node -dir DIR -node N
//	xorbasctl store corrupt    -dir DIR -name NAME [-stripe I] [-block-idx J] [-silent]
//	xorbasctl store scrub      -dir DIR [-workers W] [-scrub-rate B] [-repair-rate B]
//	xorbasctl store repair-drain -dir DIR [-workers W] [-repair-rate B]
//	xorbasctl store stats      -dir DIR
//
// scrub is the full integrity walk (every block read and CRC-checked,
// syndromes scanned) followed by a drain of the repair queue;
// repair-drain skips the reads and repairs node-loss damage straight
// from the manifests — kill-node then repair-drain is the fast path a
// real fixer takes on a dead DataNode. Both print the repair throughput;
// -scrub-rate / -repair-rate bound the background read rates in
// bytes/sec (0 = unlimited), the paper's bounded fixer load.
//
// The shared flag plumbing (-dir/-backend/-nodes/-meta/-code and the
// open/create paths) lives in repro/internal/cliutil, where the xorbasd
// gateway uses the very same definitions.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/store"
)

func storeUsage() {
	fmt.Fprintln(os.Stderr, "usage: xorbasctl store put|get|kill-node|revive-node|corrupt|scrub|repair-drain|stats [flags]")
	os.Exit(2)
}

func storeMain(args []string) error {
	if len(args) == 0 {
		storeUsage()
	}
	sub := args[0]
	fs := flag.NewFlagSet("store "+sub, flag.ExitOnError)
	sf := cliutil.RegisterStoreFlags(fs)
	in := fs.String("in", "", "input file (put)")
	out := fs.String("out", "", "output file, '-' = stdout (get; default: discard, summary only)")
	name := fs.String("name", "", "object name (default: input file base name)")
	racks := fs.Int("racks", 8, "racks, rack = node mod racks (first put only)")
	blockSize := fs.Int("block", 64<<10, "max data-block bytes (first put only)")
	node := fs.Int("node", -1, "node id (kill-node / revive-node)")
	stripeIdx := fs.Int("stripe", 0, "stripe index (corrupt)")
	blockIdx := fs.Int("block-idx", 0, "stripe position (corrupt)")
	silent := fs.Bool("silent", false, "corrupt with a valid checksum, so only the group syndrome catches it")
	workers := fs.Int("workers", 2, "repair worker pool size (scrub / repair-drain)")
	repairRate := fs.Int64("repair-rate", 0, "repair read budget in bytes/sec, 0 = unlimited (scrub / repair-drain)")
	scrubRate := fs.Int64("scrub-rate", 0, "scrub read budget in bytes/sec, 0 = unlimited (scrub)")
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	if *sf.Dir == "" {
		return fmt.Errorf("store %s needs -dir", sub)
	}
	switch sub {
	case "put":
		return storePut(sf, *in, *name, *racks, *blockSize)
	case "get":
		return storeGet(sf, *name, *out)
	case "kill-node":
		return storeSetNode(sf, *node, false)
	case "revive-node":
		return storeSetNode(sf, *node, true)
	case "corrupt":
		return storeCorrupt(sf, *name, *stripeIdx, *blockIdx, *silent)
	case "scrub":
		return storeScrub(sf, *workers, *scrubRate, *repairRate)
	case "repair-drain":
		return storeRepairDrain(sf, *workers, *repairRate)
	case "stats":
		return storeStats(sf)
	default:
		storeUsage()
		return nil
	}
}

func storePut(sf *cliutil.StoreFlags, in, name string, racks, blockSize int) error {
	if in == "" {
		return fmt.Errorf("store put needs -in")
	}
	if name == "" {
		if in == "-" {
			return fmt.Errorf("store put from stdin needs -name")
		}
		name = filepath.Base(in)
	}
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	s, err := sf.OpenOrCreate(racks, blockSize, cliutil.Rates{})
	if err != nil {
		return err
	}
	if *sf.Code == "rs" && !strings.HasPrefix(s.Codec().Name(), "RS") {
		fmt.Fprintf(os.Stderr, "note: store already exists with codec %s; -code rs is only honored on first use\n", s.Codec().Name())
	}
	start := time.Now()
	if err := s.PutReader(name, r); err != nil {
		s.Close()
		return err
	}
	var size int64
	if st, err := s.Stat(name); err == nil {
		size = int64(st.Size)
	}
	elapsed := time.Since(start)
	if err := s.Close(); err != nil {
		return err
	}
	m := s.Metrics()
	fmt.Printf("put %s: %d bytes as %s over %d nodes / %d racks (%d blocks, %d bytes written) in %v (%s)\n",
		name, size, s.Codec().Name(), s.Nodes(), s.Racks(), m.PutBlocks, m.PutBytes,
		elapsed.Round(time.Millisecond), cliutil.Mbps(size, elapsed))
	fmt.Print(cliutil.WireLine(m))
	return nil
}

func storeGet(sf *cliutil.StoreFlags, name, out string) error {
	if name == "" {
		return fmt.Errorf("store get needs -name")
	}
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		return err
	}
	defer s.Close()
	var info store.ReadInfo
	report := os.Stdout
	start := time.Now()
	switch out {
	case "":
		info, err = s.GetWriter(name, io.Discard)
	case "-":
		// Object bytes own stdout; the summary moves to stderr.
		report = os.Stderr
		info, err = s.GetWriter(name, os.Stdout)
	default:
		// Stream into a temp file and rename on success, so a failed read
		// never leaves a truncated object at -out (the same crash-safety
		// DirBackend gives block writes).
		tmp := out + ".partial"
		var f *os.File
		if f, err = os.Create(tmp); err != nil {
			return err
		}
		info, err = s.GetWriter(name, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, out)
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	mode := "clean"
	if info.Degraded {
		mode = fmt.Sprintf("DEGRADED (%d light / %d heavy inline repairs)", info.LightRepairs, info.HeavyRepairs)
	}
	fmt.Fprintf(report, "get %s: %d bytes, %s; read %d blocks / %d bytes in %v (%s)\n",
		name, info.BytesWritten, mode, info.BlocksRead, info.BytesRead,
		elapsed.Round(time.Millisecond), cliutil.Mbps(info.BytesWritten, elapsed))
	fmt.Fprint(report, cliutil.WireLine(s.Metrics()))
	return nil
}

func storeSetNode(sf *cliutil.StoreFlags, node int, up bool) error {
	if node < 0 {
		return fmt.Errorf("need -node")
	}
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		return err
	}
	if node >= s.Nodes() {
		return fmt.Errorf("node %d out of range [0,%d)", node, s.Nodes())
	}
	if up {
		if s.ReviveNode(node); s.Alive(node) {
			fmt.Printf("node %d revived\n", node)
		} else {
			fmt.Printf("node %d is retired: it stays down\n", node)
		}
	} else {
		s.KillNode(node)
		fmt.Printf("node %d killed: its blocks are unreadable until scrub repairs them elsewhere\n", node)
	}
	return s.Close()
}

func storeCorrupt(sf *cliutil.StoreFlags, name string, stripe, pos int, silent bool) error {
	if name == "" {
		return fmt.Errorf("store corrupt needs -name")
	}
	if *sf.Backend != "dir" {
		return fmt.Errorf("store corrupt edits block files directly and needs -backend dir (corrupt a net node's files on its own machine instead)")
	}
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		return err
	}
	defer s.Close()
	node, key, err := s.BlockLocation(name, stripe, pos)
	if err != nil {
		return err
	}
	be := s.Backend().(*store.DirBackend)
	p := be.Path(node, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	if silent {
		// Garbage payload under a valid checksum: invisible to the CRC,
		// caught only by the codec's group-syndrome scan.
		payload := make([]byte, len(raw)-4)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		if err := be.Write(node, key, store.FrameBlock(payload)); err != nil {
			return err
		}
		fmt.Printf("silently corrupted %s stripe %d block %d (node %d): checksum still valid\n", name, stripe, pos, node)
		return nil
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("corrupted %s stripe %d block %d (node %d): CRC will catch it\n", name, stripe, pos, node)
	return nil
}

func storeScrub(sf *cliutil.StoreFlags, workers int, scrubRate, repairRate int64) error {
	s, err := sf.Open(cliutil.Rates{Repair: repairRate, Scrub: scrubRate})
	if err != nil {
		return err
	}
	rm := store.NewRepairManager(s, workers)
	rm.Start()
	sc := store.NewScrubber(s, rm, 0)
	start := time.Now()
	rep := sc.ScrubOnce()
	rm.Drain()
	rm.Stop()
	elapsed := time.Since(start)
	m := s.Metrics()
	fmt.Printf("scrub: %d stripes checked (%d blocks / %d bytes read), %d missing + %d corrupt blocks found, %d stripes enqueued\n",
		rep.Stripes, m.ScrubBlocksRead, m.ScrubBytesRead, rep.Missing, rep.Corrupt, rep.Enqueued)
	fmt.Printf("repair: %d blocks / %d bytes rebuilt (%d light / %d heavy), %d blocks / %d bytes read, in %v (%s repaired)\n",
		m.RepairedBlocks, m.RepairedBytes, m.RepairsLight, m.RepairsHeavy,
		m.RepairBlocksRead, m.RepairBytesRead,
		elapsed.Round(time.Millisecond), cliutil.Mbps(m.RepairedBytes, elapsed))
	fmt.Print(cliutil.WireLine(m))
	return s.Close()
}

// storeRepairDrain repairs node-loss damage from the manifests alone: a
// presence walk (no reads, no CRC work) feeds the queue, then the worker
// pool drains it. The per-invocation barrier a kill-node workflow needs,
// without paying for a full integrity walk.
func storeRepairDrain(sf *cliutil.StoreFlags, workers int, repairRate int64) error {
	s, err := sf.Open(cliutil.Rates{Repair: repairRate})
	if err != nil {
		return err
	}
	rm := store.NewRepairManager(s, workers)
	rm.Start()
	sc := store.NewScrubber(s, rm, 0)
	start := time.Now()
	rep := sc.ScrubPresence()
	rm.Drain()
	rm.Stop()
	elapsed := time.Since(start)
	m := s.Metrics()
	fmt.Printf("repair-drain: %d stripes walked, %d blocks on dead nodes, %d stripes enqueued\n",
		rep.Stripes, rep.Missing, rep.Enqueued)
	fmt.Printf("repair: %d blocks / %d bytes rebuilt (%d light / %d heavy), %d blocks / %d bytes read, in %v (%s repaired)\n",
		m.RepairedBlocks, m.RepairedBytes, m.RepairsLight, m.RepairsHeavy,
		m.RepairBlocksRead, m.RepairBytesRead,
		elapsed.Round(time.Millisecond), cliutil.Mbps(m.RepairedBytes, elapsed))
	fmt.Print(cliutil.WireLine(m))
	return s.Close()
}

func storeStats(sf *cliutil.StoreFlags) error {
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Printf("store %s: codec %s, %d nodes / %d racks\n", *sf.Dir, s.Codec().Name(), s.Nodes(), s.Racks())
	objects, replayed := s.MetaRecovered()
	fmt.Printf("meta plane %s: %d manifests recovered, %d WAL records replayed at open\n",
		sf.MetaDir(), objects, replayed)
	var dead []string
	for n := 0; n < s.Nodes(); n++ {
		if !s.Alive(n) {
			dead = append(dead, fmt.Sprintf("%d", n))
		}
	}
	if len(dead) > 0 {
		fmt.Printf("dead nodes: %s\n", strings.Join(dead, ", "))
	}
	objs := s.Objects()
	fmt.Printf("%d objects:\n", len(objs))
	for _, o := range objs {
		fmt.Printf("  %-24s %10d bytes  %d stripes\n", o.Name, o.Size, o.Stripes)
	}
	per := s.BlocksPerNode()
	fmt.Printf("blocks per node:")
	for n, c := range per {
		if n%8 == 0 {
			fmt.Printf("\n  ")
		}
		mark := " "
		if !s.Alive(n) {
			mark = "†"
		}
		fmt.Printf("n%02d%s=%-4d", n, mark, c)
	}
	fmt.Println()
	return nil
}
