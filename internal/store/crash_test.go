package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The kill -9 test: a child process puts objects into a MetaDir-backed
// store and records each ack; the parent SIGKILLs it mid-stream and then
// reopens the same directories. The store's two durability promises are
// checked against the wreckage:
//
//  1. Every acked put survives, byte-exact — ack-means-durable (the
//     manifest was fsynced to the WAL before Put returned, the blocks
//     before the manifest committed).
//  2. Every object the recovered store lists is fully readable — the
//     commit is atomic, so a put the kill interrupted is either absent
//     or complete, never torn.

// crashChildEnv carries the working directory to the re-executed test
// binary; its presence is what turns TestCrashChild from a skip into the
// child's body.
const crashChildEnv = "STORE_CRASH_CHILD_DIR"

// crashObjBytes derives an object's content from its name, so the parent
// can verify bytes the child generated without any channel between them.
func crashObjBytes(name string) []byte {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	// 2 full stripes plus a partial third at BlockSize 256, K=10.
	return randBytes(rng, 256*10*2+137)
}

// TestCrashChild is the subprocess body, not a test: without the env
// marker it skips immediately. With it, it puts objects forever —
// appending each name to the acked file only after Put returns — until
// the parent kills it.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("helper for TestKillNinePreservesAckedPuts")
	}
	be, err := NewDirBackend(filepath.Join(dir, "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: be, BlockSize: 256, MetaDir: filepath.Join(dir, "meta")})
	if err != nil {
		t.Fatal(err)
	}
	acked, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("obj-%05d", i)
		if err := s.Put(name, crashObjBytes(name)); err != nil {
			t.Fatalf("Put(%q): %v", name, err)
		}
		// The ack record itself is fsynced so the parent's expectation
		// list can't outrun what it verifies against.
		if _, err := fmt.Fprintln(acked, name); err != nil {
			t.Fatal(err)
		}
		if err := acked.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillNinePreservesAckedPuts is the parent: spawn, wait for acks,
// SIGKILL, recover, verify.
func TestKillNinePreservesAckedPuts(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	ackPath := filepath.Join(dir, "acked")

	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the child ack a handful of puts, then kill it with no warning
	// at whatever point of its put loop it happens to be in.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(ackPath); err == nil && bytes.Count(b, []byte("\n")) >= 5 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("child acked fewer than 5 puts in 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // exit status is the signal; ignore

	ackBytes, err := os.ReadFile(ackPath)
	if err != nil {
		t.Fatal(err)
	}
	var ackedNames []string
	for _, line := range strings.Split(string(ackBytes), "\n") {
		if line != "" {
			ackedNames = append(ackedNames, line)
		}
	}

	be, err := NewDirBackend(filepath.Join(dir, "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: be, BlockSize: 256, MetaDir: filepath.Join(dir, "meta")})
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer s.Close()
	objects, replayed := s.MetaRecovered()
	t.Logf("killed after %d acks; recovered %d objects from %d replayed WAL records",
		len(ackedNames), objects, replayed)

	// Promise 1: every acked object is there, byte-exact.
	for _, name := range ackedNames {
		got, _, err := s.Get(name)
		if err != nil {
			t.Fatalf("acked object %q lost by the crash: %v", name, err)
		}
		if !bytes.Equal(got, crashObjBytes(name)) {
			t.Fatalf("acked object %q corrupted by the crash", name)
		}
	}
	// Promise 2: nothing the store lists is torn. The store may hold one
	// object past the acked list (Put returned, kill landed before the
	// ack line) — that object too must be complete, or absent entirely.
	if objects < len(ackedNames) || objects > len(ackedNames)+1 {
		t.Fatalf("recovered %d objects with %d acked (at most one in-flight put may surface)",
			objects, len(ackedNames))
	}
	for _, st := range s.Objects() {
		got, _, err := s.Get(st.Name)
		if err != nil {
			t.Fatalf("recovered store lists %q but cannot read it: %v", st.Name, err)
		}
		if !bytes.Equal(got, crashObjBytes(st.Name)) {
			t.Fatalf("recovered object %q is torn", st.Name)
		}
	}
}

// The overwrite variant: a child overwrites a ring of four names forever,
// so the kill lands somewhere among commits that retire versions,
// tombstones, reclamation batches and tombstone clears. After recovery
// and one drain, the disks must hold exactly what the manifests place —
// plus at most the blocks of the one PUT the kill interrupted before its
// commit, which no manifest or tombstone names — and every name must read
// back at its last acked version.

const overwriteChildEnv = "STORE_OVERWRITE_CHILD_DIR"

// overwriteRing is the child's working set; iteration i writes
// overwriteRing[i%4] with the content of ringVersion(i).
var overwriteRing = []string{"ring-0", "ring-1", "ring-2", "ring-3"}

func ringVersion(i int) []byte { return crashObjBytes(fmt.Sprintf("ring@%d", i)) }

// TestOverwriteCrashChild is the subprocess body of
// TestKillNineOverwriteRing: without the env marker it skips. It appends
// each iteration's number to the acked file after its PUT returns.
func TestOverwriteCrashChild(t *testing.T) {
	dir := os.Getenv(overwriteChildEnv)
	if dir == "" {
		t.Skip("helper for TestKillNineOverwriteRing")
	}
	s, err := openCrashStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	acked, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if err := s.Put(overwriteRing[i%len(overwriteRing)], ringVersion(i)); err != nil {
			t.Fatalf("Put #%d: %v", i, err)
		}
		if _, err := fmt.Fprintln(acked, i); err != nil {
			t.Fatal(err)
		}
		if err := acked.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func openCrashStore(dir string) (*Store, error) {
	be, err := NewDirBackend(filepath.Join(dir, "blocks"))
	if err != nil {
		return nil, err
	}
	return New(Config{Backend: be, BlockSize: 256, MetaDir: filepath.Join(dir, "meta")})
}

func TestKillNineOverwriteRing(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	ackPath := filepath.Join(dir, "acked")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestOverwriteCrashChild$")
	cmd.Env = append(os.Environ(), overwriteChildEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A version is 48 keys, so a batch closes every sixth overwrite: a
	// random ack count past ten batches puts the kill anywhere in the
	// cycle of retire, batch and tombstone clear.
	want := 64 + rand.Intn(6)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(ackPath); err == nil && bytes.Count(b, []byte("\n")) >= want {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("child acked fewer than %d overwrites in 60s", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	ackBytes, err := os.ReadFile(ackPath)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for _, line := range strings.Fields(string(ackBytes)) {
		i, err := strconv.Atoi(line)
		if err != nil || i != last+1 {
			t.Fatalf("acked file out of order at %q", line)
		}
		last = i
	}

	s, err := openCrashStore(dir)
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer s.Close()
	pending := s.Metrics().ReclaimPendingBlocks
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().ReclaimPendingBlocks; n != 0 || s.db.Len(tombPrefix) != 0 {
		t.Fatalf("after the drain: %d blocks, %d tombstones pending", n, s.db.Len(tombPrefix))
	}
	t.Logf("killed after %d acked PUTs; recovery queued %d blocks, all reclaimed", last+1, pending)

	// Every name reads back at its last acked version, or at the one PUT
	// that may have committed after the last ack.
	for r, name := range overwriteRing {
		got, _, err := s.Get(name)
		if err != nil {
			t.Fatalf("%s lost by the crash: %v", name, err)
		}
		lastAcked := last - (last-r+len(overwriteRing))%len(overwriteRing)
		ok := bytes.Equal(got, ringVersion(lastAcked))
		if next := last + 1; next%len(overwriteRing) == r {
			ok = ok || bytes.Equal(got, ringVersion(next))
		}
		if !ok {
			t.Fatalf("%s does not read back at its last acked version #%d", name, lastAcked)
		}
	}

	// The disks hold exactly the manifests' blocks, plus at most one
	// uncommitted version, newer than every committed one.
	placed := make(map[string]bool)
	var maxGen int64
	it := s.db.Scan(objPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		obj := v.(*objectInfo)
		maxGen = max(maxGen, obj.Gen)
		for _, b := range retiredOf(obj).left {
			placed[fmt.Sprintf("node%03d/%s", b.node, b.key)] = true
		}
	}
	nodeDirs, err := filepath.Glob(filepath.Join(dir, "blocks", "node*"))
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	extra := map[string]int{} // "name.gNNNNNN" → blocks no manifest places
	for _, nd := range nodeDirs {
		entries, err := os.ReadDir(nd)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			held++
			if placed[filepath.Base(nd)+"/"+e.Name()] {
				continue
			}
			version := e.Name()
			for j := 0; j < 2; j++ { // strip ".bNN" and ".sNNNNN"
				version = version[:strings.LastIndexByte(version, '.')]
			}
			extra[version]++
		}
	}
	if want := len(placed) + sum(extra); held != want {
		t.Fatalf("disks hold %d blocks; manifests place %d and %d are extra: some placed block is missing", held, len(placed), sum(extra))
	}
	if len(extra) > 1 {
		t.Fatalf("blocks of %d versions survive unreferenced, want at most the interrupted PUT's: %v", len(extra), extra)
	}
	for version := range extra {
		gen, err := strconv.ParseInt(version[strings.LastIndex(version, ".g")+2:], 10, 64)
		if err != nil || gen <= maxGen {
			t.Fatalf("unreferenced blocks of %s: not a PUT newer than every commit (max committed gen %d)", version, maxGen)
		}
	}
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// The relocation variant: a child moves blocks forever, by repair
// re-placement (kill a node, rebuild its blocks elsewhere, revive it) and
// by rebalance (fill a joiner, drain a decommissioned node), so the kill
// lands among copies, splices, relocation records, batches and clears.
// After recovery and one drain the disks must hold exactly what the
// manifests place, plus at most the copy of the one relocation the kill
// interrupted before its splice — a key the manifests place on another
// node — and every object must read back whole.

const relocateChildEnv = "STORE_RELOCATE_CHILD_DIR"

// relocObjects is the child's working set.
var relocObjects = []string{"mv-0", "mv-1", "mv-2", "mv-3"}

// TestRelocationCrashChild is the subprocess body of
// TestKillNineRelocations: without the env marker it skips. It appends
// each finished round's number to the acked file.
func TestRelocationCrashChild(t *testing.T) {
	dir := os.Getenv(relocateChildEnv)
	if dir == "" {
		t.Skip("helper for TestKillNineRelocations")
	}
	s, err := openCrashStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range relocObjects {
		if err := s.Put(name, crashObjBytes(name)); err != nil {
			t.Fatal(err)
		}
	}
	rm := NewRepairManager(s, 1) // one write-back in flight at a time
	rm.Start()
	sc := NewScrubber(s, rm, time.Hour)
	rb := NewRebalancer(s, rm, time.Hour)
	acked, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		victim := i % 2
		s.KillNode(victim)
		sc.ScrubPresence()
		rm.Drain()
		s.ReviveNode(victim)
		if _, err := s.AddNode(""); err != nil {
			t.Fatal(err)
		}
		rb.RebalanceOnce()
		if err := s.Decommission(2 + i); err != nil { // the oldest node that is no victim
			t.Fatal(err)
		}
		rb.RebalanceOnce()
		if _, err := fmt.Fprintln(acked, i); err != nil {
			t.Fatal(err)
		}
		if err := acked.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestKillNineRelocations(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	ackPath := filepath.Join(dir, "acked")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRelocationCrashChild$")
	cmd.Env = append(os.Environ(), relocateChildEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A few whole rounds, then a random delay into the next one: the kill
	// lands anywhere in a round's repairs, moves and drains.
	want := 2 + rand.Intn(3)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(ackPath); err == nil && bytes.Count(b, []byte("\n")) >= want {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("child finished fewer than %d rounds in 60s", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(time.Duration(rand.Intn(50)) * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	s, err := openCrashStore(dir)
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer s.Close()
	pending := s.Metrics().ReclaimPendingBlocks
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().ReclaimPendingBlocks; n != 0 || s.db.Len(relocPrefix)+s.db.Len(tombPrefix) != 0 {
		t.Fatalf("after the drain: %d blocks, %d records pending", n, s.db.Len(relocPrefix)+s.db.Len(tombPrefix))
	}
	ackBytes, _ := os.ReadFile(ackPath)
	t.Logf("killed after %d rounds; recovery queued %d blocks, all reclaimed", bytes.Count(ackBytes, []byte("\n")), pending)
	for _, name := range relocObjects {
		if got, _, err := s.Get(name); err != nil || !bytes.Equal(got, crashObjBytes(name)) {
			t.Fatalf("%s after the crash: err %v", name, err)
		}
	}

	placed := make(map[string]int) // block key → its node
	it := s.db.Scan(objPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		for _, b := range retiredOf(v.(*objectInfo)).left {
			placed[b.key] = b.node
		}
	}
	nodeDirs, err := filepath.Glob(filepath.Join(dir, "blocks", "node*"))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	var extra []string
	for _, nd := range nodeDirs {
		entries, err := os.ReadDir(nd)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			node, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(nd), "node"))
			if err != nil {
				t.Fatal(err)
			}
			if at, ok := placed[e.Name()]; ok && at == node {
				found++
				continue
			}
			if _, ok := placed[e.Name()]; !ok {
				t.Fatalf("node %d holds %s, a key no manifest places", node, e.Name())
			}
			extra = append(extra, fmt.Sprintf("node%03d/%s", node, e.Name()))
		}
	}
	if found != len(placed) {
		t.Fatalf("disks hold %d of the %d placed blocks", found, len(placed))
	}
	if len(extra) > 1 {
		t.Fatalf("%d stale copies survive the drain, want at most the interrupted relocation's: %v", len(extra), extra)
	}
}
