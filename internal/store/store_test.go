package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestRoundTrip(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	rng := rand.New(rand.NewSource(1))
	k := s.Codec().K()
	sizes := []int{0, 1, 17, 128, 128 * k, 128*k + 1, 3*128*k - 5}
	for _, n := range sizes {
		name := fmt.Sprintf("obj-%d", n)
		want := randBytes(rng, n)
		if err := s.Put(name, want); err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		got, info, err := s.Get(name)
		if err != nil {
			t.Fatalf("Get(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%d bytes): payload mismatch", n)
		}
		if info.Degraded {
			t.Fatalf("Get(%d bytes): unexpectedly degraded", n)
		}
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64})
	rng := rand.New(rand.NewSource(2))
	v1, v2 := randBytes(rng, 5000), randBytes(rng, 300)
	if err := s.Put("a", v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", v2); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("a")
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("overwrite: got %d bytes, err %v", len(got), err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("a"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("Get after Delete: err %v, want ErrObjectNotFound", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("double Delete: err %v, want ErrObjectNotFound", err)
	}
	// Two retired versions are far from a batch: drain by hand.
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().ReclaimPendingBlocks; n != 0 {
		t.Fatalf("%d blocks still pending after Reclaim", n)
	}
	mb := s.Backend().(*MemBackend)
	for n := 0; n < s.Nodes(); n++ {
		if c := mb.BlockCount(n); c != 0 {
			t.Fatalf("node %d still holds %d blocks after delete", n, c)
		}
	}
}

// TestDegradedReadProperty is the package's central property test: random
// objects, random erasure/corruption patterns up to the Xorbas distance
// (d−1 = 4 per stripe), byte-exact reads throughout, and light/heavy
// accounting that matches the code's group structure.
func TestDegradedReadProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newTestStore(t, Config{BlockSize: 64})
	codec := s.Codec()
	k, n := codec.K(), codec.NStored()
	groupOf := make([]int, n)
	for gi, members := range codec.RepairGroups() {
		for _, m := range members {
			groupOf[m] = gi
		}
	}
	mb := s.Backend().(*MemBackend)
	for trial := 0; trial < 60; trial++ {
		name := fmt.Sprintf("prop-%d", trial)
		want := randBytes(rng, 1+rng.Intn(4*64*k))
		if err := s.Put(name, want); err != nil {
			t.Fatal(err)
		}
		// Damage every stripe independently: up to 4 blocks erased or
		// corrupted.
		stripes := 0
		for _, o := range s.Objects() {
			if o.Name == name {
				stripes = o.Stripes
			}
		}
		type damage struct{ stripe, pos int }
		var damagedData []damage
		for si := 0; si < stripes; si++ {
			count := rng.Intn(5) // 0..4 ≤ d−1
			perm := rng.Perm(n)[:count]
			for _, pos := range perm {
				node, key, err := s.BlockLocation(name, si, pos)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					if err := mb.Delete(node, key); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := mb.Corrupt(node, key); err != nil {
						t.Fatal(err)
					}
				}
				if pos < k {
					damagedData = append(damagedData, damage{si, pos})
				}
			}
		}
		got, info, err := s.Get(name)
		if err != nil {
			t.Fatalf("trial %d: degraded Get: %v", trial, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: payload mismatch under damage", trial)
		}
		if (len(damagedData) > 0) != info.Degraded {
			t.Fatalf("trial %d: Degraded=%v with %d damaged data blocks", trial, info.Degraded, len(damagedData))
		}
		if info.LightRepairs+info.HeavyRepairs != int64(len(damagedData)) {
			t.Fatalf("trial %d: %d+%d repairs accounted, want %d",
				trial, info.LightRepairs, info.HeavyRepairs, len(damagedData))
		}
		if err := s.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLightPathAccounting pins the acceptance criterion: a single lost
// data block whose repair group is intact is served by the light decoder.
func TestLightPathAccounting(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 256})
	rng := rand.New(rand.NewSource(4))
	want := randBytes(rng, 256*10) // one full stripe
	if err := s.Put("x", want); err != nil {
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("x", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().(*MemBackend).Delete(node, key); err != nil {
		t.Fatal(err)
	}
	got, info, err := s.Get("x")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("degraded Get: err %v", err)
	}
	if info.LightRepairs != 1 || info.HeavyRepairs != 0 {
		t.Fatalf("light=%d heavy=%d, want 1/0", info.LightRepairs, info.HeavyRepairs)
	}

	// Break the group (lose a second member) and the same read goes heavy.
	node, key, err = s.BlockLocation("x", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().(*MemBackend).Delete(node, key); err != nil {
		t.Fatal(err)
	}
	got, info, err = s.Get("x")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("doubly-degraded Get: err %v", err)
	}
	// Two losses in one group: the first rebuild is heavy, after which the
	// group is whole again and the second is light.
	if info.LightRepairs+info.HeavyRepairs != 2 || info.HeavyRepairs < 1 {
		t.Fatalf("light=%d heavy=%d, want one heavy among two", info.LightRepairs, info.HeavyRepairs)
	}
}

func TestRSDegradedReads(t *testing.T) {
	s := newTestStore(t, Config{Codec: NewRS104Codec(), BlockSize: 64})
	rng := rand.New(rand.NewSource(5))
	want := randBytes(rng, 64*10*2)
	if err := s.Put("r", want); err != nil {
		t.Fatal(err)
	}
	mb := s.Backend().(*MemBackend)
	for si := 0; si < 2; si++ {
		for _, pos := range rng.Perm(s.Codec().NStored())[:4] {
			node, key, err := s.BlockLocation("r", si, pos)
			if err != nil {
				t.Fatal(err)
			}
			if err := mb.Delete(node, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, info, err := s.Get("r")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("RS degraded Get: err %v", err)
	}
	if info.LightRepairs != 0 {
		t.Fatalf("RS reported %d light repairs; RS has no light path", info.LightRepairs)
	}
}

func TestUnrecoverableStripeFails(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64})
	rng := rand.New(rand.NewSource(6))
	if err := s.Put("u", randBytes(rng, 64*10)); err != nil {
		t.Fatal(err)
	}
	mb := s.Backend().(*MemBackend)
	// Erase 7 blocks — data blocks 0..6 — leaving only 9 stored blocks,
	// short of the rank 10 any decode needs.
	for pos := 0; pos < 7; pos++ {
		node, key, err := s.BlockLocation("u", 0, pos)
		if err != nil {
			t.Fatal(err)
		}
		if err := mb.Delete(node, key); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Get("u"); err == nil {
		t.Fatal("Get succeeded with 7 erased blocks")
	}
}

func TestPlacementRackAware(t *testing.T) {
	s := newTestStore(t, Config{Nodes: 24, Racks: 8, BlockSize: 32})
	rng := rand.New(rand.NewSource(7))
	if err := s.Put("p", randBytes(rng, 32*10*5)); err != nil {
		t.Fatal(err)
	}
	groups := s.Codec().RepairGroups()
	for si := 0; si < 5; si++ {
		nodes := make([]int, s.Codec().NStored())
		seen := make(map[int]bool)
		for pos := range nodes {
			n, _, err := s.BlockLocation("p", si, pos)
			if err != nil {
				t.Fatal(err)
			}
			nodes[pos] = n
			if seen[n] {
				t.Fatalf("stripe %d: node %d holds two blocks (24 nodes available)", si, n)
			}
			seen[n] = true
		}
		for gi, members := range groups {
			racks := make(map[int]bool)
			for _, m := range members {
				r := nodes[m] % s.Racks()
				if racks[r] {
					t.Fatalf("stripe %d group %d: two blocks on rack %d", si, gi, r)
				}
				racks[r] = true
			}
		}
	}
}

func TestDirBackend(t *testing.T) {
	dir := t.TempDir()
	be, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config{Backend: be, BlockSize: 64})
	rng := rand.New(rand.NewSource(9))
	want := randBytes(rng, 64*10*2+9)
	if err := s.Put("disk", want); err != nil {
		t.Fatal(err)
	}
	// Corrupt one block file on disk; the CRC catches it and the read
	// reconstructs inline.
	node, key, err := s.BlockLocation("disk", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := be.Path(node, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, err := s.Get("disk")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("dir-backend degraded Get: err %v", err)
	}
	if !info.Degraded || info.LightRepairs != 1 {
		t.Fatalf("info = %+v, want one light repair", info)
	}
}

// TestDirBackendSweepsStaleTemps pins the crash-write story: a temp file
// stranded by a killed writer is invisible to reads and swept at the
// next open, while real blocks survive the sweep.
func TestDirBackendSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	be, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Write(7, "obj.g000001.s00000.b00", []byte("real block")); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "node007", tmpPrefix+"obj.g000001.s00000.b01-12345")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	be2, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived reopen: stat err %v", err)
	}
	if got, err := be2.Read(7, "obj.g000001.s00000.b00"); err != nil || string(got) != "real block" {
		t.Fatalf("real block lost in sweep: %q, err %v", got, err)
	}
}

// TestDirBackendLongName stores an object under the longest name
// ValidateName accepts. Block keys embed the name and a DirBackend write
// adds its temp-file prefix and suffix to the key, so an uncapped key
// for a name past about 220 bytes exceeds the 255-byte file-name limit
// and the PUT fails.
func TestDirBackendLongName(t *testing.T) {
	dir := t.TempDir()
	be, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config{Backend: be, BlockSize: 64})
	name := strings.Repeat("long-name/", maxNameLen/10) + "tail"
	if len(name) != maxNameLen || ValidateName(name) != nil {
		t.Fatalf("test name: %d bytes, ValidateName %v", len(name), ValidateName(name))
	}
	want := randBytes(rand.New(rand.NewSource(3)), 64*10+5)
	if err := s.Put(name, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, _, err := s.Get(name)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get: %d bytes, err %v", len(got), err)
	}
	if err := s.Delete(name); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, _, err := s.Get(name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: err %v, want ErrNotFound", err)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "node*", "*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("after Delete and Reclaim: %d files left, err %v", len(left), err)
	}
}

func TestQueuePriority(t *testing.T) {
	q := newRepairQueue()
	mk := func(i, erasures int, light bool) repairItem {
		return repairItem{ref: stripeRef{name: "o", idx: i}, erasures: erasures, light: light}
	}
	q.Push(mk(0, 1, false))
	q.Push(mk(1, 3, false)) // most erasures: closest to data loss
	q.Push(mk(2, 1, true))  // same risk as 0 but light goes first
	q.Push(mk(3, 3, true))  // ties with 1 on risk, light wins
	var order []int
	for range 4 {
		it, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		order = append(order, it.ref.idx)
		q.Done()
	}
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
	// One item per stripe: a push that brings nothing new is refused, and
	// one that does merges into the pending item — the union of damage,
	// the higher risk, light only when both were — and moves it up.
	first := mk(5, 1, true)
	first.damaged = []int{2}
	if _, ok := q.Push(first); !ok {
		t.Fatal("first push refused")
	}
	if _, ok := q.Push(first); ok {
		t.Fatal("a duplicate push was taken")
	}
	q.Push(mk(6, 2, true))
	more := mk(5, 3, false)
	more.damaged = []int{2, 7}
	if it, ok := q.Push(more); !ok || !slices.Equal(it.damaged, []int{2, 7}) || it.erasures != 3 || it.light {
		t.Fatalf("merged item %+v (ok %v), want damage [2 7], 3 erasures, heavy", it, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("%d items pending, want 2", q.Len())
	}
	q.Close()
	for _, want := range []int{5, 6} { // pending items drain even after Close
		it, ok := q.Pop()
		if !ok || it.ref.idx != want {
			t.Fatalf("after Close popped %+v (ok %v), want stripe %d", it.ref, ok, want)
		}
		q.Done()
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop returned an item from a closed empty queue")
	}
}
