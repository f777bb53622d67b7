package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// countingBackend wraps a Backend and counts operations (atomically —
// the store's pools call it concurrently) — the probe the restart tests
// use to prove recovery never touched the block plane.
type countingBackend struct {
	Backend
	reads, writes, deletes atomic.Int64
}

func (c *countingBackend) Read(node int, key string) ([]byte, error) {
	c.reads.Add(1)
	return c.Backend.Read(node, key)
}

func (c *countingBackend) Write(node int, key string, data []byte) error {
	c.writes.Add(1)
	return c.Backend.Write(node, key, data)
}

func (c *countingBackend) Delete(node int, key string) error {
	c.deletes.Add(1)
	return c.Backend.Delete(node, key)
}

// TestCleanRestartNoPresenceWalk is the clean-shutdown half of the
// restart story: Close checkpoints the metadata plane, so the next open
// recovers every manifest from the checkpoint alone — zero WAL records
// replayed and, critically, zero backend reads. Restart cost is
// proportional to metadata, not data.
func TestCleanRestartNoPresenceWalk(t *testing.T) {
	root := t.TempDir()
	blocks := filepath.Join(root, "blocks")
	metaDir := filepath.Join(root, "meta")
	rng := rand.New(rand.NewSource(7))
	want := map[string][]byte{
		"a": randBytes(rng, 256*10*2),
		"b": randBytes(rng, 256*10+13),
		"c": randBytes(rng, 99),
	}

	be1, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestStore(t, Config{Backend: be1, BlockSize: 256, MetaDir: metaDir})
	for name, data := range want {
		if err := s1.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	be2, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: be2}
	s2, err := New(Config{Backend: cb, BlockSize: 256, MetaDir: metaDir})
	if err != nil {
		t.Fatal(err)
	}
	if cb.reads.Load() != 0 || cb.writes.Load() != 0 || cb.deletes.Load() != 0 {
		t.Fatalf("clean restart touched the backend: %d reads, %d writes, %d deletes",
			cb.reads.Load(), cb.writes.Load(), cb.deletes.Load())
	}
	objects, replayed := s2.MetaRecovered()
	if objects != len(want) {
		t.Fatalf("recovered %d objects, want %d", objects, len(want))
	}
	if replayed != 0 {
		t.Fatalf("clean restart replayed %d WAL records, want 0 (checkpoint at Close)", replayed)
	}
	for name, data := range want {
		got, info, err := s2.Get(name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get(%q) after clean restart: err %v", name, err)
		}
		if info.Degraded {
			t.Fatalf("Get(%q) after clean restart was degraded", name)
		}
	}

	// A node death survives a clean restart too, and a reopen that names
	// no geometry reads it from the plane: the object still reads back
	// byte-exact, around the dead node.
	victim, _, err := s2.BlockLocation("a", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2.KillNode(victim)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newTestStore(t, Config{Backend: be2, MetaDir: metaDir})
	defer s3.Close()
	if objects, replayed := s3.MetaRecovered(); objects != len(want) || replayed != 0 || s3.Alive(victim) {
		t.Fatalf("reopen: %d objects, %d WAL records replayed, node %d alive %v; want %d, 0, false",
			objects, replayed, victim, s3.Alive(victim), len(want))
	}
	got, info, err := s3.Get("a")
	if err != nil || !bytes.Equal(got, want["a"]) || !info.Degraded {
		t.Fatalf("Get after the reopen with node %d dead: err %v, degraded %v", victim, err, info.Degraded)
	}
}

// TestCrashRestartReplaysWAL is the crash half: the first process never
// closes, so nothing is checkpointed and the next open must replay the
// WAL to recover the manifests. Every acked put is there; the node death
// survives in the node's membership record; and the presence walk that finds the
// dead node's blocks is the scrubber's job after open, not recovery's.
func TestCrashRestartReplaysWAL(t *testing.T) {
	root := t.TempDir()
	blocks := filepath.Join(root, "blocks")
	metaDir := filepath.Join(root, "meta")
	rng := rand.New(rand.NewSource(8))
	want := randBytes(rng, 256*10*3+17)

	be1, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestStore(t, Config{Backend: be1, BlockSize: 256, MetaDir: metaDir})
	if err := s1.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s1.BlockLocation("obj", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1.KillNode(victim)
	// No Close: the process "crashes" here with only the WAL on disk.

	be2, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: be2}
	s2, err := New(Config{Backend: cb, BlockSize: 256, MetaDir: metaDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if cb.reads.Load() != 0 {
		t.Fatalf("recovery read %d blocks from the backend, want 0 (replay is metadata-only)", cb.reads.Load())
	}
	objects, replayed := s2.MetaRecovered()
	if objects != 1 {
		t.Fatalf("recovered %d objects, want 1", objects)
	}
	if replayed == 0 {
		t.Fatal("crash restart replayed no WAL records — the put was never logged")
	}
	if s2.Alive(victim) {
		t.Fatalf("crash restart lost the death of node %d", victim)
	}

	// The dead node's blocks surface through the scrubber's presence
	// walk, exactly as they would have before the crash.
	rm := NewRepairManager(s2, 2)
	rm.Start()
	sc := NewScrubber(s2, rm, 0)
	rep := sc.ScrubPresence()
	rm.Drain()
	rm.Stop()
	if rep.Missing == 0 {
		t.Fatal("presence walk found nothing missing with a node down")
	}
	got, info, err := s2.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after crash restart + repair: err %v", err)
	}
	if info.Degraded {
		t.Fatal("repair left the read degraded")
	}
}

// TestRepairQueueSurvivesRestart: damage enqueued before a crash is
// repaired after it without waiting for a new scrub — the queue's
// entries are persisted (advisorily) in the metadata plane and re-queued
// by NewRepairManager.
func TestRepairQueueSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	blocks := filepath.Join(root, "blocks")
	metaDir := filepath.Join(root, "meta")
	rng := rand.New(rand.NewSource(9))
	want := randBytes(rng, 256*10*2+5)

	be1, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestStore(t, Config{Backend: be1, BlockSize: 256, MetaDir: metaDir})
	if err := s1.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s1.BlockLocation("obj", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1.KillNode(victim)
	// Scrub finds the damage and enqueues it — but no manager ever runs,
	// and the process "crashes" with the queue entries only in the plane.
	rm1 := NewRepairManager(s1, 1)
	sc1 := NewScrubber(s1, rm1, 0)
	if rep := sc1.ScrubPresence(); rep.Enqueued == 0 {
		t.Fatal("scrub enqueued nothing with a node down")
	}
	// Force the advisory (no-sync) queue records to disk so this
	// simulated crash tests recovery, not fsync timing.
	if err := s1.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	be2, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Backend: be2, BlockSize: 256, MetaDir: metaDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rm2 := NewRepairManager(s2, 2)
	if rm2.Pending() == 0 {
		t.Fatal("restart lost the persisted repair queue")
	}
	rm2.Start()
	rm2.Drain()
	rm2.Stop()
	if s2.Metrics().RepairedBlocks == 0 {
		t.Fatal("recovered queue items repaired nothing")
	}
	got, info, err := s2.Get("obj")
	if err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after recovered repair: err %v, degraded %v", err, info.Degraded)
	}
}

// TestDirBackendSurvivesRestart runs the full lifecycle the CLI promises
// — kill → scrub → repair → revive — across a simulated process restart:
// the store's metadata lives in the plane while the block bytes sit in
// a DirBackend on disk, and no process is ever closed cleanly.
func TestDirBackendSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	blocks := filepath.Join(root, "blocks")
	metaDir := filepath.Join(root, "meta")
	rng := rand.New(rand.NewSource(31))
	want := randBytes(rng, 256*10*3+17) // 4 stripes, last one partial

	// Process one: create, put, kill a node, "crash".
	be1, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestStore(t, Config{Backend: be1, BlockSize: 256, MetaDir: metaDir})
	if err := s1.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s1.BlockLocation("obj", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1.KillNode(victim)
	// No Close, here or below: every restart is a crash restart.

	// Process two: reopen against a fresh backend over the same files.
	be2, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore(t, Config{Backend: be2, MetaDir: metaDir})
	if s2.Alive(victim) {
		t.Fatalf("restart lost the dead node %d", victim)
	}
	got, info, err := s2.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("degraded Get after restart: err %v", err)
	}
	if !info.Degraded {
		t.Fatal("read of a killed data block was not degraded")
	}

	// Scrub + repair relocate the dead node's blocks onto live nodes.
	rm := NewRepairManager(s2, 2)
	rm.Start()
	sc := NewScrubber(s2, rm, 0)
	rep := sc.ScrubOnce()
	rm.Drain()
	rm.Stop()
	if rep.Missing == 0 {
		t.Fatal("scrub found nothing missing with a node down")
	}
	m := s2.Metrics()
	if m.RepairedBlocks == 0 {
		t.Fatal("repair rebuilt nothing")
	}
	got, info, err = s2.Get("obj")
	if err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("post-repair Get: err %v, degraded %v", err, info.Degraded)
	}

	// Revive the node: repair re-placed its blocks, so its stale replicas
	// are no manifest's and cannot resurface.
	s2.ReviveNode(victim)
	got, info, err = s2.Get("obj")
	if err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("post-revival Get: err %v, degraded %v", err, info.Degraded)
	}

	// Process three: the repaired manifest survives a second crash too.
	be3, err := NewDirBackend(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s3 := newTestStore(t, Config{Backend: be3, MetaDir: metaDir})
	defer s3.Close()
	got, info, err = s3.Get("obj")
	if err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after second restart: err %v, degraded %v", err, info.Degraded)
	}
	// Every stale replica repair left on the victim is deleted or still
	// named by a record that survived both crashes: one drain empties the
	// victim's directory.
	if err := s3.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(filepath.Dir(be3.Path(victim, "x"))); err != nil || len(left) != 0 {
		t.Fatalf("victim's directory after the drain: %d entries (err %v)", len(left), err)
	}
}

// TestGeometryRecoveredFromPlane: the plane records the geometry it was
// created with, so a reopen may leave every geometry field zero — and
// must, rather than guess — and gets the codec, node count, racks and
// block size back, after a crash (no Close) as well as a clean stop.
func TestGeometryRecoveredFromPlane(t *testing.T) {
	root := t.TempDir()
	metaDir := filepath.Join(root, "meta")
	be := NewMemBackend()
	s1 := newTestStore(t, Config{Backend: be, Codec: NewRS104Codec(), Nodes: 17, Racks: 5, BlockSize: 128, MetaDir: metaDir})
	want := randBytes(rand.New(rand.NewSource(41)), 128*10+7)
	if err := s1.Put("obj", want); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Backend: be, MetaDir: metaDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The literal the plane recorded: codecByName must keep resolving it.
	if got := s2.Codec().Name(); got != "RS(10,4)" || got != s1.Codec().Name() {
		t.Fatalf("recovered codec %s, want RS(10,4) = %s", got, s1.Codec().Name())
	}
	if s2.Nodes() != 17 || s2.Racks() != 5 || s2.cfg.BlockSize != 128 {
		t.Fatalf("recovered %d nodes / %d racks / %d-byte blocks, want 17 / 5 / 128", s2.Nodes(), s2.Racks(), s2.cfg.BlockSize)
	}
	got, _, err := s2.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after zero-geometry reopen: err %v", err)
	}
	// The next put is laid out with the recovered block size.
	if err := s2.Put("obj2", want); err != nil {
		t.Fatal(err)
	}
	if st, err := s2.Stat("obj2"); err != nil || st.Stripes != 2 {
		t.Fatalf("put after reopen: %d stripes (err %v), want 2 at 128-byte blocks", st.Stripes, err)
	}
	// The recovered codec decodes what the first process encoded: with a
	// data block's node down the read is byte-exact through the heavy
	// decoder (RS has no light one), and a full scrub finds nothing else.
	node, _, err := s2.BlockLocation("obj", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2.KillNode(node)
	got, info, err := s2.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("degraded Get after zero-geometry reopen: err %v", err)
	}
	if info.HeavyRepairs == 0 || info.LightRepairs != 0 {
		t.Fatalf("degraded RS Get used %d light / %d heavy repairs, want heavy only", info.LightRepairs, info.HeavyRepairs)
	}
	s2.ReviveNode(node)
	rm := NewRepairManager(s2, 1)
	rm.Start()
	defer rm.Stop()
	if rep := scrubAndDrain(t, s2, rm); rep.Missing != 0 || rep.Corrupt != 0 {
		t.Fatalf("scrub after reopen: %+v, want a clean store", rep)
	}
}

// TestGeometryMismatchRejected: a non-zero geometry field that disagrees
// with the plane's record fails the open with ErrGeometryMismatch — the
// store is not opened, and the plane is left usable.
func TestGeometryMismatchRejected(t *testing.T) {
	metaDir := filepath.Join(t.TempDir(), "meta")
	be := NewMemBackend()
	s1 := newTestStore(t, Config{Backend: be, BlockSize: 128, MetaDir: metaDir})
	if err := s1.Put("obj", []byte("laid out as LRC(10,6,5) over 20 nodes")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"codec":      {Codec: NewRS104Codec()},
		"nodes":      {Nodes: 21},
		"racks":      {Racks: 9},
		"block size": {BlockSize: 256},
	} {
		cfg.Backend, cfg.MetaDir = be, metaDir
		if s, err := New(cfg); !errors.Is(err, ErrGeometryMismatch) {
			t.Fatalf("reopen with a different %s: store %v, err %v, want ErrGeometryMismatch", name, s != nil, err)
		}
	}
	// Matching non-zero fields are accepted.
	s2, err := New(Config{Backend: be, Codec: NewXorbasCodec(), Nodes: 20, Racks: 8, BlockSize: 128, MetaDir: metaDir})
	if err != nil {
		t.Fatalf("reopen with the recorded geometry: %v", err)
	}
	defer s2.Close()
	if _, _, err := s2.Get("obj"); err != nil {
		t.Fatal(err)
	}
}

// TestPlaneWithoutGeometryRecord: a plane that holds records but no
// geometry record (written before it existed) is refused until a Config
// spells the whole geometry out, which records it; and a Config no plane
// could accept is refused before a plane is created for it.
func TestPlaneWithoutGeometryRecord(t *testing.T) {
	metaDir := filepath.Join(t.TempDir(), "meta")
	be := NewMemBackend()
	want := []byte("laid out as RS(10,4) over 16 nodes in 4 racks")
	s1 := newTestStore(t, Config{Backend: be, Codec: NewRS104Codec(), Nodes: 16, Racks: 4, BlockSize: 128, MetaDir: metaDir})
	if err := s1.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.db.Delete(configKey); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"zero":    {},
		"partial": {Codec: NewRS104Codec(), Nodes: 16, Racks: 4},
	} {
		cfg.Backend, cfg.MetaDir = be, metaDir
		if s, err := New(cfg); !errors.Is(err, ErrGeometryMismatch) {
			t.Fatalf("%s geometry over a record-less plane: store %v, err %v, want ErrGeometryMismatch", name, s != nil, err)
		}
	}
	s2, err := New(Config{Backend: be, Codec: NewRS104Codec(), Nodes: 16, Racks: 4, BlockSize: 128, MetaDir: metaDir})
	if err != nil {
		t.Fatalf("full geometry over a record-less plane: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := New(Config{Backend: be, MetaDir: metaDir})
	if err != nil {
		t.Fatalf("zero-geometry reopen after adoption: %v", err)
	}
	defer s3.Close()
	if s3.Codec().Name() != "RS(10,4)" || s3.Nodes() != 16 || s3.Racks() != 4 {
		t.Fatalf("adopted %s / %d nodes / %d racks", s3.Codec().Name(), s3.Nodes(), s3.Racks())
	}
	if got, _, err := s3.Get("obj"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after adoption: err %v", err)
	}

	fresh := filepath.Join(t.TempDir(), "meta")
	if _, err := New(Config{BlockSize: -1, MetaDir: fresh}); err == nil {
		t.Fatal("negative block size accepted")
	}
	if _, err := os.Stat(fresh); err == nil {
		t.Fatal("a refused Config left a plane behind")
	}
}
