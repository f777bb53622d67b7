package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkPlacedExactly fails t unless mb holds exactly the blocks s's
// manifests place, each on its node: no orphan, no loss.
func checkPlacedExactly(t *testing.T, s *Store, mb *MemBackend) {
	t.Helper()
	want := make(map[blockRef]bool)
	it := s.db.Scan(objPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		for _, b := range retiredOf(v.(*objectInfo)).left {
			want[b] = true
		}
	}
	mb.mu.RLock()
	defer mb.mu.RUnlock()
	for node, blocks := range mb.nodes {
		for key := range blocks {
			if !want[blockRef{node, key}] {
				t.Errorf("node %d holds %s, which no manifest places", node, key)
			}
		}
	}
	for b := range want {
		if _, ok := mb.nodes[b.node][b.key]; !ok {
			t.Errorf("node %d lost %s", b.node, b.key)
		}
	}
}

// TestReclaimBatchesByCount: retiring deletes nothing until the pending
// list holds reclaimBatch fresh keys; the retire that gets it there sends
// one DeleteMany per node and no single Delete. A version a reader pins
// is skipped, keeps its cache entries, and goes — entries too — at the
// first reclamation after its last unpin.
func TestReclaimBatchesByCount(t *testing.T) {
	const bs = 64
	mb := NewMemBackend()
	rec := newIORecorder(mb)
	s := newTestStore(t, Config{Backend: rec, Nodes: 16, BlockSize: bs, CacheBytes: 1 << 20})
	k, n := s.Codec().K(), s.Codec().NStored()
	rng := rand.New(rand.NewSource(31))
	names := []string{"a0", "a1", "a2", "a3"}
	for _, name := range names {
		if err := s.Put(name, randBytes(rng, k*bs)); err != nil { // one stripe, n blocks
			t.Fatal(err)
		}
	}
	if _, _, err := s.Get("a0"); err != nil { // cache a0's data blocks
		t.Fatal(err)
	}
	pinned, ok := s.manifestSnapshot("a0")
	if !ok {
		t.Fatal("a0 not found")
	}
	inv0 := s.Metrics().CacheInvalidations

	perBatch := reclaimBatch / n
	for i := 1; i < perBatch; i++ {
		if err := s.Put(names[i%len(names)], randBytes(rng, k*bs)); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if d, b := rec.reqs("Delete"), rec.reqs("DeleteMany"); d != 0 || b != 0 {
		t.Fatalf("%d overwrites made %d deletes and %d batches, want none before the batch closes", perBatch-1, d, b)
	}
	if want := int64((perBatch - 1) * n); m.ReclaimPendingBlocks != want {
		t.Fatalf("ReclaimPendingBlocks = %d, want %d", m.ReclaimPendingBlocks, want)
	}
	if got := s.db.Len(tombPrefix); got != perBatch-1 {
		t.Fatalf("%d tombstones for %d retired versions", got, perBatch-1)
	}

	// This overwrite closes the batch. a0's first version is pinned, so it
	// waits; every other retired version goes, one request per node.
	if err := s.Put(names[perBatch%len(names)], randBytes(rng, k*bs)); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	if d, b := rec.reqs("Delete"), rec.reqs("DeleteMany"); d != 0 || b != int64(n) {
		t.Fatalf("the batch made %d deletes and %d DeleteMany calls, want 0 and %d (one per node)", d, b, n)
	}
	if m.ReclaimPendingBlocks != int64(n) || s.db.Len(tombPrefix) != 1 {
		t.Fatalf("after the batch: %d blocks, %d tombstones pending, want the pinned version's %d and 1", m.ReclaimPendingBlocks, s.db.Len(tombPrefix), n)
	}
	if m.CacheInvalidations != inv0 {
		t.Fatalf("the pinned version's cache entries were dropped before its reader finished (%d -> %d)", inv0, m.CacheInvalidations)
	}

	s.unpin(pinned)
	if b := rec.reqs("DeleteMany"); b != int64(n) {
		t.Fatalf("unpin sent %d DeleteMany calls; reclamation waits for a batch", b-int64(n))
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	if m.ReclaimPendingBlocks != 0 || s.db.Len(tombPrefix) != 0 {
		t.Fatalf("after Reclaim: %d blocks, %d tombstones pending", m.ReclaimPendingBlocks, s.db.Len(tombPrefix))
	}
	if got := m.CacheInvalidations - inv0; got != int64(k) {
		t.Fatalf("reclaiming the pinned version dropped %d cache entries, want its %d data blocks", got, k)
	}
	checkPlacedExactly(t, s, mb)
}

// writeHook runs after every write that reaches its backend.
type writeHook struct {
	*FaultBackend
	after func()
}

func (w *writeHook) Write(node int, key string, data []byte) error {
	err := w.FaultBackend.Write(node, key, data)
	w.after()
	return err
}

// TestReclaimRollbackLeaksNothing: a PUT fails mid-object because a node's
// writes start failing after the first stripe, and that node refuses
// deletes too. The rollback's tombstone keeps the node's blocks pending —
// the other nodes' are deleted at once — and once the node heals and the
// list drains, every node holds exactly the blocks the manifests place.
func TestReclaimRollbackLeaksNothing(t *testing.T) {
	const bs, victim = 64, 3
	mb := NewMemBackend()
	fb := NewFaultBackend(mb, 1)
	var armed atomic.Int64 // writes left before the victim fails; 0 = off
	hook := &writeHook{FaultBackend: fb, after: func() {
		if armed.Add(-1) == 0 {
			fb.SetFault(victim, Fault{ErrRate: 1})
		}
	}}
	s := newTestStore(t, Config{Backend: hook, Nodes: 16, BlockSize: bs})
	k, n := s.Codec().K(), s.Codec().NStored()
	rng := rand.New(rand.NewSource(32))
	keep := randBytes(rng, 2*k*bs)
	if err := s.Put("keep", keep); err != nil {
		t.Fatal(err)
	}
	armed.Store(int64(n)) // stripe 0's writes land, then the victim fails
	if err := s.Put("doomed", randBytes(rng, 3*k*bs)); !errors.Is(err, ErrInjected) {
		t.Fatalf("PUT against a failing node: err %v, want ErrInjected", err)
	}
	if s.db.Len(tombPrefix) != 1 {
		t.Fatal("the rolled-back version has no tombstone")
	}

	if err := s.Reclaim(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Reclaim with the victim refusing deletes: err %v, want ErrInjected", err)
	}
	m := s.Metrics()
	if m.ReclaimPendingBlocks == 0 || s.db.Len(tombPrefix) != 1 {
		t.Fatalf("failed deletes cleared the rollback: %d blocks, %d tombstones pending", m.ReclaimPendingBlocks, s.db.Len(tombPrefix))
	}
	if got, placed := mb.BlockCount(victim), s.BlocksPerNode()[victim]; got <= placed {
		t.Fatalf("victim holds %d blocks, manifests place %d: its stripe-0 block should still be there", got, placed)
	}
	for node := 0; node < s.Nodes(); node++ {
		if node != victim && mb.BlockCount(node) != s.BlocksPerNode()[node] {
			t.Fatalf("node %d holds %d blocks, manifests place %d: healthy nodes are reclaimed at once", node, mb.BlockCount(node), s.BlocksPerNode()[node])
		}
	}

	fb.SetFault(victim, Fault{})
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.ReclaimPendingBlocks != 0 || s.db.Len(tombPrefix) != 0 {
		t.Fatalf("after healing: %d blocks, %d tombstones pending", m.ReclaimPendingBlocks, s.db.Len(tombPrefix))
	}
	checkPlacedExactly(t, s, mb)
	if got, _, err := s.Get("keep"); err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("the surviving object: err %v", err)
	}
}

// TestReclaimRepairedNodeAfterRevive: repair re-places a dead node's
// blocks while the node answers nothing, deletes included. Its stale
// copies wait in the pending list, and once it is healed and revived a
// drain leaves it holding only what the manifests place.
func TestReclaimRepairedNodeAfterRevive(t *testing.T) {
	const bs = 64
	mb := NewMemBackend()
	fb := NewFaultBackend(mb, 1)
	s := newTestStore(t, Config{Backend: fb, Nodes: 20, BlockSize: bs})
	rng := rand.New(rand.NewSource(34))
	want := randBytes(rng, 3*s.Codec().K()*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s.BlockLocation("obj", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := mb.BlockCount(victim)
	fb.SetFault(victim, Fault{ErrRate: 1})
	s.KillNode(victim)
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	NewScrubber(s, rm, 0).ScrubPresence()
	rm.Drain()
	if got := s.Metrics().RepairedBlocks; got != int64(held) {
		t.Fatalf("repaired %d blocks, want the victim's %d", got, held)
	}
	if err := s.Reclaim(); !errors.Is(err, ErrInjected) {
		t.Errorf("Reclaim with the victim down: err %v, want ErrInjected", err)
	}
	if got := s.Metrics().ReclaimPendingBlocks; got != int64(held) {
		t.Errorf("%d blocks pending with the victim down, want its %d stale copies", got, held)
	}

	fb.SetFault(victim, Fault{})
	s.ReviveNode(victim)
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if n := mb.BlockCount(victim); n != 0 {
		t.Fatalf("revived victim holds %d blocks no manifest places", n)
	}
	checkPlacedExactly(t, s, mb)
	if got, info, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after revive and drain: err %v, degraded %v", err, info.Degraded)
	}
}

// deleteGate is a MemBackend whose node shut refuses deletes, as a node
// that is down does (-1: none).
type deleteGate struct {
	*MemBackend
	shut atomic.Int64
}

func newDeleteGate() *deleteGate {
	d := &deleteGate{MemBackend: NewMemBackend()}
	d.shut.Store(-1)
	return d
}

func (d *deleteGate) Delete(node int, key string) error {
	if int64(node) == d.shut.Load() {
		return ErrInjected
	}
	return d.MemBackend.Delete(node, key)
}

// TestReclaimMoveBackToStaleNode: a block moves off node A, and A's stale
// copy waits in the pending list because A refuses the delete. A stays a
// placement candidate for the block, and the move back lands at once,
// under a key of its own: the pending delete, once A takes it, removes
// only the stale copy.
func TestReclaimMoveBackToStaleNode(t *testing.T) {
	const bs = 64
	gate := newDeleteGate()
	s := newTestStore(t, Config{Backend: gate, Nodes: 20, BlockSize: bs})
	want := randBytes(rand.New(rand.NewSource(35)), s.Codec().K()*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	v, _ := s.db.Get(objKey("obj"))
	ref := stripeRef{name: "obj", gen: v.(*objectInfo).Gen}
	snap := func() *stripeInfo { si, _ := s.stripeSnapshot(ref); return &si }
	a, b := snap().Nodes[0], 0
	for slices.Contains(snap().Nodes, b) {
		b++
	}
	gate.shut.Store(int64(a))
	rb := NewRebalancer(s, NewRepairManager(s, 0), 0)
	if rb.migrateTo(ref, snap(), 0, b) == 0 {
		t.Fatalf("move %d -> %d failed", a, b)
	}
	if err := s.Reclaim(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Reclaim with node %d refusing deletes: err %v, want ErrInjected", a, err)
	}

	for n := 0; n < s.Nodes(); n++ {
		if n != a {
			s.KillNode(n) // leave a the one node the block could go to
		}
	}
	if n := s.replacement(snap(), 0); n != a {
		t.Fatalf("node %d was picked for the block, want %d, the one live node", n, a)
	}
	for n := 0; n < s.Nodes(); n++ {
		s.ReviveNode(n)
	}
	if rb.migrateTo(ref, snap(), 0, a) == 0 {
		t.Fatalf("move back %d -> %d failed while the stale copy awaits deletion", b, a)
	}

	gate.shut.Store(-1)
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	checkPlacedExactly(t, s, gate.MemBackend)
	if node, _, _ := s.BlockLocation("obj", 0, 0); node != a {
		t.Fatalf("block on node %d, want %d", node, a)
	}
	if got, info, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after the round trip: err %v, degraded %v", err, info.Degraded)
	}
}

// TestReclaimResumesAfterRestart: blocks Close could not delete keep their
// tombstones; the next open queues them without touching the backend, a
// drain deletes them, and a tombstone's generation is never reissued — a
// new version with the tombstoned name must not get the keys the
// tombstone is about to delete.
func TestReclaimResumesAfterRestart(t *testing.T) {
	const bs, victim = 64, 2
	dir := filepath.Join(t.TempDir(), "meta")
	mb := NewMemBackend()
	fb := NewFaultBackend(mb, 1)
	cfg := Config{Backend: fb, Nodes: 16, BlockSize: bs, MetaDir: dir}
	s1 := newTestStore(t, cfg)
	k, n := s1.Codec().K(), s1.Codec().NStored()
	rng := rand.New(rand.NewSource(33))
	x := randBytes(rng, k*bs)
	for _, put := range []struct {
		name string
		data []byte
	}{{"x", randBytes(rng, k*bs)}, {"x", x}, {"y", randBytes(rng, k*bs)}} {
		if err := s1.Put(put.name, put.data); err != nil {
			t.Fatal(err)
		}
	}
	_, oldKey, err := s1.BlockLocation("y", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Delete("y"); err != nil { // y's generation now lives only in its tombstone
		t.Fatal(err)
	}
	fb.SetFault(victim, Fault{ErrRate: 1})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	fb.SetFault(victim, Fault{})
	// Close drained what it could: only the victim still holds retired
	// blocks, one per retired version.
	for node := 0; node < n; node++ {
		want := 1 // x's current version
		if node == victim {
			want = 3
		}
		if got := mb.BlockCount(node); got != want {
			t.Fatalf("after Close node %d holds %d blocks, want %d", node, got, want)
		}
	}

	rec := newIORecorder(fb)
	s2 := newTestStore(t, Config{Backend: rec, MetaDir: dir})
	defer s2.Close()
	if lines, _, _ := rec.take(); lines != "" {
		t.Fatalf("open did backend I/O:\n%s", lines)
	}
	if got := s2.Metrics().ReclaimPendingBlocks; got != int64(2*n) {
		t.Fatalf("reopened with %d blocks pending, want both retired versions' %d", got, 2*n)
	}
	y := randBytes(rng, k*bs)
	if err := s2.Put("y", y); err != nil {
		t.Fatal(err)
	}
	if _, newKey, err := s2.BlockLocation("y", 0, 0); err != nil || newKey == oldKey {
		t.Fatalf("the new y reuses the tombstoned key %q (err %v)", oldKey, err)
	}
	if err := s2.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Metrics().ReclaimPendingBlocks; got != 0 || s2.db.Len(tombPrefix) != 0 {
		t.Fatalf("after the drain: %d blocks, %d tombstones pending", got, s2.db.Len(tombPrefix))
	}
	checkPlacedExactly(t, s2, mb)
	for name, want := range map[string][]byte{"x": x, "y": y} {
		if got, _, err := s2.Get(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after restart and drain: err %v", name, err)
		}
	}
}

// TestReclaimNeverReissuesRelocatedKey: a block moves off node A while A
// refuses deletes, so its relocation record outlives the object, whose
// tombstone clears. After a restart over the same plane, a new version
// of the same name must not get a key that record names: once A takes
// the delete, it would remove the live block.
func TestReclaimNeverReissuesRelocatedKey(t *testing.T) {
	const bs = 64
	dir := filepath.Join(t.TempDir(), "meta")
	gate := newDeleteGate()
	cfg := Config{Backend: gate, Nodes: 20, BlockSize: bs, MetaDir: dir}
	s1 := newTestStore(t, cfg)
	rng := rand.New(rand.NewSource(38))
	if err := s1.Put("obj", randBytes(rng, s1.Codec().K()*bs)); err != nil {
		t.Fatal(err)
	}
	v, _ := s1.db.Get(objKey("obj"))
	ref := stripeRef{name: "obj", gen: v.(*objectInfo).Gen}
	si, _ := s1.stripeSnapshot(ref)
	a, b := si.Nodes[0], 0
	for slices.Contains(si.Nodes, b) {
		b++
	}
	gate.shut.Store(int64(a))
	if NewRebalancer(s1, NewRepairManager(s1, 0), 0).migrateTo(ref, &si, 0, b) == 0 {
		t.Fatalf("move %d -> %d failed", a, b)
	}
	if err := s1.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Reclaim(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Reclaim with node %d refusing deletes: err %v, want ErrInjected", a, err)
	}
	if s1.db.Len(tombPrefix) != 0 || s1.db.Len(relocPrefix) != 1 {
		t.Fatalf("%d tombstones, %d relocation records pending, want 0 and 1", s1.db.Len(tombPrefix), s1.db.Len(relocPrefix))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestStore(t, Config{Backend: gate, MetaDir: dir})
	defer s2.Close()
	want := randBytes(rng, s2.Codec().K()*bs)
	if err := s2.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	gate.shut.Store(-1)
	if err := s2.Reclaim(); err != nil {
		t.Fatal(err)
	}
	checkPlacedExactly(t, s2, gate.MemBackend)
	if got, info, err := s2.Get("obj"); err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after the restart: err %v, degraded %v", err, info.Degraded)
	}
}

// landedWriter is a MemBackend whose Write, while fail is set, stores
// the block and then reports failure: a directory sync that failed after
// the rename, or a reply lost after the node stored the block.
type landedWriter struct {
	*MemBackend
	fail atomic.Bool
}

func (l *landedWriter) Write(node int, key string, data []byte) error {
	if err := l.MemBackend.Write(node, key, data); err != nil || !l.fail.Load() {
		return err
	}
	return fmt.Errorf("%w: write to node %d reported failure after it landed", ErrInjected, node)
}

// TestRelocationFailedWriteLeaksNothing: a repair whose write-back
// reports failure splices nothing, but the copy may be on the node under
// a key no later write reuses. Once the reclaimer drains, the nodes hold
// exactly the blocks the manifests place; a later drain then repairs.
func TestRelocationFailedWriteLeaksNothing(t *testing.T) {
	const bs = 64
	lw := &landedWriter{MemBackend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: lw, BlockSize: bs})
	defer s.Close()
	want := randBytes(rand.New(rand.NewSource(39)), 2*s.Codec().K()*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s.BlockLocation("obj", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(victim)
	rm := NewRepairManager(s, 1)
	rm.Start()
	defer rm.Stop()
	sc := NewScrubber(s, rm, 0)
	lw.fail.Store(true)
	sc.ScrubPresence()
	rm.Drain()
	if got := s.Metrics().RepairedBlocks; got != 0 {
		t.Fatalf("%d blocks counted repaired with every write-back failing", got)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	checkPlacedExactly(t, s, lw.MemBackend)

	lw.fail.Store(false)
	sc.ScrubPresence()
	rm.Drain()
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	checkPlacedExactly(t, s, lw.MemBackend)
	if got, info, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after the repair: err %v, degraded %v", err, info.Degraded)
	}
}

// TestReclaimConcurrent races overwrites, deletes, pinned streaming GETs
// and drains. Every read returns one whole version or not-found, and
// once the racers stop a drain leaves exactly the manifests' blocks. Run
// under -race -count=10 in CI.
func TestReclaimConcurrent(t *testing.T) {
	const bs, names, rounds = 64, 4, 24
	mb := NewMemBackend()
	s := newTestStore(t, Config{Backend: NewFaultBackend(mb, 1), Nodes: 16, BlockSize: bs, CacheBytes: 1 << 20})
	k := s.Codec().K()
	size := 2*k*bs + bs/3 // three stripes: a retired version is 48 keys
	body := func(i, v int) []byte { return bytes.Repeat([]byte{byte(i*rounds + v)}, size) }
	for i := 0; i < names; i++ {
		if err := s.Put(fmt.Sprintf("r%d", i), body(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	var racers, readers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < names; i++ {
		racers.Add(1)
		go func(i int) { // overwriter, and now and then a deleter
			defer racers.Done()
			name := fmt.Sprintf("r%d", i)
			for v := 1; v < rounds; v++ {
				if v%7 == 0 {
					if err := s.Delete(name); err != nil && !errors.Is(err, ErrObjectNotFound) {
						t.Errorf("Delete %s: %v", name, err)
					}
					continue
				}
				if err := s.Put(name, body(i, v)); err != nil {
					t.Errorf("Put %s: %v", name, err)
				}
			}
		}(i)
		readers.Add(1)
		go func(i int) { // streaming reader: holds its pin for a whole object
			defer readers.Done()
			name := fmt.Sprintf("r%d", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				_, err := s.GetWriter(name, &buf)
				if errors.Is(err, ErrObjectNotFound) {
					continue
				}
				got := buf.Bytes()
				if err != nil || len(got) != size || bytes.Count(got, got[:1]) != size || int(got[0])/rounds != i {
					t.Errorf("GetWriter %s: err %v, %d bytes: not one version of the object", name, err, len(got))
					return
				}
			}
		}(i)
	}
	readers.Add(1)
	go func() { // drains racing the batches
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Reclaim(); err != nil {
				t.Errorf("Reclaim: %v", err)
				return
			}
		}
	}()
	racers.Wait()
	close(stop)
	readers.Wait()

	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().ReclaimPendingBlocks; got != 0 || s.db.Len(tombPrefix) != 0 {
		t.Fatalf("after the race: %d blocks, %d tombstones pending", got, s.db.Len(tombPrefix))
	}
	checkPlacedExactly(t, s, mb)
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("r%d", i)
		got, _, err := s.Get(name)
		if want := body(i, rounds-1); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s after the race: err %v, last version %v", name, err, bytes.Equal(got, want))
		}
	}
}

// TestRelocationHammer races overwrites, repair drains and rebalance
// passes, so blocks move between nodes — back onto nodes whose stale
// copies still wait in the pending list, too — while versions retire
// under them. Once the racers stop and the cluster settles, every object
// reads back at its last version and every disk holds exactly what the
// manifests place. Run under -race -count=10 in CI.
func TestRelocationHammer(t *testing.T) {
	const bs, names, rounds, nodes = 64, 3, 12, 20
	gate := newDeleteGate()
	mb := gate.MemBackend
	s := newTestStore(t, Config{Backend: NewFaultBackend(gate, 1), Nodes: nodes, BlockSize: bs})
	size := s.Codec().K()*bs + bs/2 // two stripes
	body := func(i, v int) []byte { return bytes.Repeat([]byte{byte(i*rounds + v)}, size) }
	for i := 0; i < names; i++ {
		if err := s.Put(fmt.Sprintf("h%d", i), body(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	sc := NewScrubber(s, rm, 0)
	rb := NewRebalancer(s, rm, 0)

	var wg sync.WaitGroup
	for i := 0; i < names; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := 1; v < rounds; v++ {
				if err := s.Put(fmt.Sprintf("h%d", i), body(i, v)); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(i)
	}
	wg.Add(2)
	go func() { // kill, re-place the victim's blocks, revive: repair moves
		defer wg.Done()
		for n := 0; n < 40; n++ {
			victim := n % 2 // blocks moved off one come back when the other dies
			s.KillNode(victim)
			gate.shut.Store(int64(victim)) // its stale copies stay pending
			sc.ScrubPresence()
			rm.Drain()
			s.ReviveNode(victim)
		}
		gate.shut.Store(-1)
	}()
	go func() { // a join and a decommission per round: rebalance moves
		defer wg.Done()
		for n := 0; n < 4; n++ {
			if _, err := s.AddNode(""); err != nil {
				t.Errorf("AddNode: %v", err)
			}
			rb.RebalanceOnce()
			if err := s.Decommission(nodes - 1 - n); err != nil {
				t.Errorf("Decommission: %v", err)
			}
			rb.RebalanceOnce()
		}
	}()
	wg.Wait()

	for pass := 0; s.MembershipStatus().Draining > 0; pass++ {
		if pass == 10 {
			t.Fatalf("drains never completed: %+v", s.MembershipStatus())
		}
		rb.RebalanceOnce()
		rm.Drain()
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if rep := sc.ScrubOnce(); rep.Missing+rep.Corrupt != 0 {
		t.Fatalf("the settled cluster lost blocks: %+v", rep)
	}
	checkPlacedExactly(t, s, mb)
	for i := 0; i < names; i++ {
		if got, _, err := s.Get(fmt.Sprintf("h%d", i)); err != nil || !bytes.Equal(got, body(i, rounds-1)) {
			t.Errorf("h%d after the race: err %v, last version %v", i, err, bytes.Equal(got, body(i, rounds-1)))
		}
	}
	if m := s.Metrics(); m.RepairedBlocks == 0 || m.RebalancedBlocks == 0 {
		t.Fatalf("the race moved nothing: %d repaired, %d rebalanced", m.RepairedBlocks, m.RebalancedBlocks)
	}
}

// opTap is a MemBackend that runs tap once, after the first write (or,
// with del, the first DeleteMany naming key).
type opTap struct {
	*MemBackend
	del bool
	key string
	tap func()
}

func (o *opTap) run(del bool, key string) {
	if tap := o.tap; del == o.del && key == o.key && tap != nil {
		o.tap = nil
		tap()
	}
}

func (o *opTap) Write(node int, key string, data []byte) error {
	err := o.MemBackend.Write(node, key, data)
	o.run(false, key)
	return err
}

func (o *opTap) DeleteMany(node int, keys []string) error {
	for _, key := range keys {
		if err := o.MemBackend.Delete(node, key); err != nil {
			return err
		}
	}
	for _, key := range keys {
		o.run(true, key)
	}
	return nil
}

// TestReclaimHoldsCopyBeingWritten: a repair rewrites a block in place on
// node D, and between its write and its splice a rebalance moves the
// block off D and drains the reclaimer. The rewrite's copy has a key of
// its own, so the drain leaves it alone, and the rewrite then splices it
// over the rebalanced copy: the block is neither lost nor leaked.
func TestReclaimHoldsCopyBeingWritten(t *testing.T) {
	const bs = 64
	tap := &opTap{MemBackend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: tap, Nodes: 20, BlockSize: bs})
	want := randBytes(rand.New(rand.NewSource(36)), s.Codec().K()*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	v, _ := s.db.Get(objKey("obj"))
	ref := stripeRef{name: "obj", gen: v.(*objectInfo).Gen}
	si, _ := s.stripeSnapshot(ref)
	d, t2 := si.Nodes[0], 0
	for slices.Contains(si.Nodes, t2) {
		t2++
	}
	frame, err := tap.Read(d, si.Keys[0])
	if err != nil {
		t.Fatal(err)
	}
	rewrite := blockKey("obj", s.gen.Load()+1, 0, 0) // the key relocate issues next
	tap.key, tap.tap = rewrite, func() {
		if NewRebalancer(s, NewRepairManager(s, 0), 0).migrateTo(ref, &si, 0, t2) == 0 {
			t.Errorf("move %d -> %d failed", d, t2)
		}
		if err := s.Reclaim(); err != nil {
			t.Error(err)
		}
		if _, err := tap.Read(d, rewrite); err != nil {
			t.Errorf("the copy being written was deleted: %v", err)
		}
	}
	if !s.relocate(ref, 0, d, frame) {
		t.Fatal("the rewrite did not land")
	}
	if tap.tap != nil {
		t.Fatal("the rewrite wrote no copy under the next key")
	}

	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	checkPlacedExactly(t, s, tap.MemBackend)
	if node, _, _ := s.BlockLocation("obj", 0, 0); node != d {
		t.Fatalf("block on node %d, want %d", node, d)
	}
	if got, info, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get: err %v, degraded %v", err, info.Degraded)
	}
}

// TestReclaimNoCopyUnderInflightDelete: blocks of two objects move off
// node A, and while the Reclaim's DeleteMany of A's two stale copies is
// in flight a rebalance moves the first block back. The move back lands
// at once, under a key of its own, so the delete in flight cannot take
// it; the copy it replaced goes with the next Reclaim.
func TestReclaimNoCopyUnderInflightDelete(t *testing.T) {
	const bs = 64
	tap := &opTap{MemBackend: NewMemBackend(), del: true}
	s := newTestStore(t, Config{Backend: tap, Nodes: 20, BlockSize: bs})
	want := randBytes(rand.New(rand.NewSource(37)), s.Codec().K()*bs)
	for _, name := range []string{"obj", "other"} {
		if err := s.Put(name, want); err != nil {
			t.Fatal(err)
		}
	}
	snapOf := func(name string) (stripeRef, func() *stripeInfo) {
		v, _ := s.db.Get(objKey(name))
		ref := stripeRef{name: name, gen: v.(*objectInfo).Gen}
		return ref, func() *stripeInfo { si, _ := s.stripeSnapshot(ref); return &si }
	}
	spare := func(si *stripeInfo) int {
		n := 0
		for slices.Contains(si.Nodes, n) {
			n++
		}
		return n
	}
	ref, snap := snapOf("obj")
	a, b := snap().Nodes[0], spare(snap())
	oref, osnap := snapOf("other")
	opos := slices.Index(osnap().Nodes, a)
	if opos < 0 {
		t.Fatalf("no block of the second object on node %d", a)
	}
	rb := NewRebalancer(s, NewRepairManager(s, 0), 0)
	tap.key, tap.tap = snap().Keys[0], func() {
		if rb.migrateTo(ref, snap(), 0, a) == 0 {
			t.Errorf("move back %d -> %d failed while the stale copy was being deleted", b, a)
		}
	}
	if rb.migrateTo(ref, snap(), 0, b) == 0 {
		t.Fatalf("move %d -> %d failed", a, b)
	}
	if rb.migrateTo(oref, osnap(), opos, spare(osnap())) == 0 {
		t.Fatalf("move of the second object's block off %d failed", a)
	}
	if tap.tap == nil {
		t.Fatal("the move deleted its stale copy on its own path")
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if tap.tap != nil {
		t.Fatal("the Reclaim deleted no stale copy")
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	checkPlacedExactly(t, s, tap.MemBackend)
	if node, _, _ := s.BlockLocation("obj", 0, 0); node != a {
		t.Fatalf("block on node %d, want %d", node, a)
	}
	for _, name := range []string{"obj", "other"} {
		if got, info, err := s.Get(name); err != nil || !bytes.Equal(got, want) || info.Degraded {
			t.Fatalf("Get %s: err %v, degraded %v", name, err, info.Degraded)
		}
	}
}

// parkWriter holds its first Write until release is closed, having
// closed parked: a streaming reader stopped mid-object with its pin held.
type parkWriter struct {
	bytes.Buffer
	parked, release chan struct{}
	once            sync.Once
}

func (w *parkWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.parked)
		<-w.release
	})
	return w.Buffer.Write(p)
}

// TestReclaimWaitsForReaderOfMovedCopy: a GET parks in its first Write
// while the node holding a later stripe's block is drained. The drain
// copies the block off, but the copy the GET's snapshot names stays on
// the drained node until the reader unpins, so the GET reads it:
// byte-exact and not degraded, with k reads per stripe. The unpin does
// no I/O: the copy goes with the next pass's Reclaim, and that pass
// retires the node.
func TestReclaimWaitsForReaderOfMovedCopy(t *testing.T) {
	const bs, stripes = 64, 3
	mb := NewMemBackend()
	s := newTestStore(t, Config{Backend: mb, Nodes: 24, BlockSize: bs})
	k := s.Codec().K()
	want := randBytes(rand.New(rand.NewSource(36)), stripes*k*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	victim, key, err := s.BlockLocation("obj", stripes-1, 0)
	if err != nil {
		t.Fatal(err)
	}

	w := &parkWriter{parked: make(chan struct{}), release: make(chan struct{})}
	type result struct {
		info ReadInfo
		err  error
	}
	done := make(chan result, 1)
	go func() {
		info, err := s.GetWriter("obj", w)
		done <- result{info, err}
	}()
	<-w.parked

	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	rb := NewRebalancer(s, rm, 0)
	rb.RebalanceOnce()
	rm.Drain()
	rep := rb.RebalanceOnce()
	if moved, _, _ := s.BlockLocation("obj", stripes-1, 0); moved == victim {
		t.Fatal("the drain did not move the block")
	}
	if _, err := mb.Read(victim, key); err != nil {
		t.Fatalf("the copy a pinned reader's snapshot names was deleted: %v", err)
	}
	if rep.Remaining == 0 || s.MemberState(victim) != NodeDraining {
		t.Fatalf("drain retired the victim (%+v, %s) while a copy on it waits for a reader", rep, s.MemberState(victim))
	}

	close(w.release)
	res := <-done
	if res.err != nil || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("GET across the drain: err %v, byte-exact %v", res.err, bytes.Equal(w.Bytes(), want))
	}
	if i := res.info; i.Degraded || i.LightRepairs != 0 || i.HeavyRepairs != 0 || i.BlocksRead != int64(stripes*k) {
		t.Fatalf("GET across the drain: %+v, want %d plain block reads", i, stripes*k)
	}
	if _, err := mb.Read(victim, key); err != nil {
		t.Fatalf("the reader's unpin deleted the moved copy: %v", err)
	}
	if rb.RebalanceOnce(); s.MemberState(victim) != NodeDead {
		t.Fatalf("victim is %s after its last copy went, want dead", s.MemberState(victim))
	}
	if _, err := mb.Read(victim, key); err == nil {
		t.Fatal("the pass after the reader left kept the moved copy")
	}
	if got := s.Metrics().ReclaimPendingBlocks; got != 0 {
		t.Fatalf("%d blocks pending after the reader left, want 0", got)
	}
	checkPlacedExactly(t, s, mb)
}

// TestReclaimDrainUnderLoopingReaders: GETs of one object overlap without
// pause while the node under one of its blocks drains. Each relocation
// waits only for the readers whose snapshot names the old copy; readers
// that began after it read the new copy and hold nothing back, so the
// drain retires the node while the reads go on, every one byte-exact
// and none degraded.
func TestReclaimDrainUnderLoopingReaders(t *testing.T) {
	const bs, stripes, readers = 64, 3, 4
	mb := NewMemBackend()
	s := newTestStore(t, Config{Backend: mb, Nodes: 24, BlockSize: bs})
	want := randBytes(rand.New(rand.NewSource(37)), stripes*s.Codec().K()*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	victim, _, err := s.BlockLocation("obj", stripes-1, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, readers)
	var reads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := &slowWriter{}
				info, err := s.GetWriter("obj", w)
				if err == nil && (!bytes.Equal(w.Bytes(), want) || info.Degraded) {
					err = fmt.Errorf("byte-exact %v, degraded %v", bytes.Equal(w.Bytes(), want), info.Degraded)
				}
				if err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	for reads.Load() < readers { // every reader is in its loop
		time.Sleep(time.Millisecond)
	}

	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	rm := NewRepairManager(s, 2)
	rm.Start()
	defer rm.Stop()
	rb := NewRebalancer(s, rm, 0)
	passes := 0
	for deadline := time.Now().Add(5 * time.Second); s.MemberState(victim) != NodeDead && time.Now().Before(deadline); passes++ {
		rb.RebalanceOnce()
		rm.Drain()
		time.Sleep(time.Millisecond)
	}
	state, during := s.MemberState(victim), reads.Load()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("GET during the drain: %v", err)
	}
	if state != NodeDead {
		t.Fatalf("victim is %s after %d drain passes under looping readers, want dead", state, passes)
	}
	if during <= readers {
		t.Fatalf("only %d GETs ran, the readers never overlapped the drain", during)
	}
	checkPlacedExactly(t, s, mb)
}

// slowWriter pauses on every Write, so a GET holds its pin a while.
type slowWriter struct{ bytes.Buffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(200 * time.Microsecond)
	return w.Buffer.Write(p)
}

// TestReclaimHeldMoveGoesAfterUnpin: a repair write-back moves a block a
// pinned reader's snapshot names. The old copy and its cache entry stay
// while the reader holds the snapshot, a Reclaim included, and the
// unpin leaves them too: it does no I/O. The first Reclaim after it
// deletes both. A write-back that no manifest takes, because the version
// was overwritten meanwhile, is named by no snapshot, so a Reclaim
// deletes it although a reader pins that version.
func TestReclaimHeldMoveGoesAfterUnpin(t *testing.T) {
	const bs = 64
	mb := NewMemBackend()
	s := newTestStore(t, Config{Backend: mb, Nodes: 20, BlockSize: bs, CacheBytes: 1 << 20})
	k := s.Codec().K()
	rng := rand.New(rand.NewSource(38))
	want := randBytes(rng, k*bs)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("obj"); err != nil { // cache the data blocks
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("obj", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := s.manifestSnapshot("obj")
	if !ok {
		t.Fatal("obj not found")
	}
	rm := NewRepairManager(s, 1)
	var scratch repairScratch
	ref := stripeRef{name: "obj", gen: snap.Gen}
	write := rm.repairFetch(repairItem{ref: ref, damaged: []int{0}, silent: true}, &scratch)
	if write == nil {
		t.Fatal("nothing to write back")
	}
	write()
	if _, moved, _ := s.BlockLocation("obj", 0, 0); moved == key {
		t.Fatal("the write-back kept the block's key")
	}
	held := func(when string) {
		t.Helper()
		if _, err := mb.Read(node, key); err != nil || s.cache.get(key) == nil {
			t.Fatalf("%s: the moved copy went: read err %v, cached %v", when, err, s.cache.get(key) != nil)
		}
		if got := s.Metrics().ReclaimPendingBlocks; got != 1 {
			t.Fatalf("%s: %d blocks pending, want the moved copy's 1", when, got)
		}
	}
	held("after the write-back")
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	held("Reclaim while a pinned snapshot names the copy")
	s.unpin(snap)
	held("after the unpin")

	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Read(node, key); err == nil || s.cache.get(key) != nil {
		t.Fatalf("the Reclaim after the unpin kept the moved copy: read err %v, cached %v", err, s.cache.get(key) != nil)
	}
	if m := s.Metrics(); m.ReclaimPendingBlocks != 0 || s.db.Len(relocPrefix) != 0 {
		t.Fatalf("after the Reclaim: %d blocks, %d relocation records pending, want none", m.ReclaimPendingBlocks, s.db.Len(relocPrefix))
	}
	if got, info, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) || info.Degraded {
		t.Fatalf("Get after the move: err %v, degraded %v", err, info.Degraded)
	}

	// A write-back the overwrite beat: its copy is named by no snapshot.
	snap, _ = s.manifestSnapshot("obj")
	ref.gen = snap.Gen
	write = rm.repairFetch(repairItem{ref: ref, damaged: []int{0}, silent: true}, &scratch)
	if write == nil {
		t.Fatal("nothing to write back")
	}
	if err := s.Put("obj", randBytes(rng, k*bs)); err != nil {
		t.Fatal(err)
	}
	write()
	if n := s.db.Len(relocPrefix); n != 1 {
		t.Fatalf("%d relocation records after the unspliced write-back, want its 1", n)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.ReclaimPendingBlocks != int64(len(retiredOf(snap).left)) || s.db.Len(relocPrefix) != 0 {
		t.Fatalf("the unspliced write-back waits for the old version's reader: %d blocks, %d relocation records pending",
			m.ReclaimPendingBlocks, s.db.Len(relocPrefix))
	}
	s.unpin(snap)
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	checkPlacedExactly(t, s, mb)
}
