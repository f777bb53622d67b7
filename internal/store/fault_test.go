package store

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/pattern"
)

// patternBytes materializes size bytes of the shared deterministic
// stream for equality checks.
func patternBytes(t *testing.T, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(pattern.NewReader(int64(size))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosDegradedReadSlowAndDeadNode reads through one dead node plus
// one slow-and-flaky node: the dead node's blocks reconstruct, the slow
// node adds latency but not wrong bytes, and the object comes back
// byte-exact.
func TestChaosDegradedReadSlowAndDeadNode(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(), 1)
	s, err := New(Config{Backend: fb, Nodes: 20, BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	want := patternBytes(t, size)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}

	// Node holding stripe 0 block 0 dies outright (store-level kill);
	// the node holding block 1 stays up but slow and flaky.
	dead, _, err := s.BlockLocation("obj", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := s.BlockLocation("obj", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(dead)
	fb.SetFault(slow, Fault{Latency: 2 * time.Millisecond, ErrRate: 0.3})

	for i := 0; i < 5; i++ {
		got, info, err := s.Get("obj")
		if err != nil {
			t.Fatalf("get %d under chaos: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("get %d returned wrong bytes", i)
		}
		if !info.Degraded {
			t.Fatalf("get %d read through a dead node without degrading", i)
		}
	}
}

// TestChaosRepairDrainNeverServesCorruptBytes runs the full kill →
// presence walk → repair drain cycle while three nodes randomly corrupt
// and fail reads. The CRC frame turns injected corruption into failed
// fetches, the planner routes around them, and neither a degraded read
// nor the repaired blocks ever contain a wrong byte.
func TestChaosRepairDrainNeverServesCorruptBytes(t *testing.T) {
	for _, sc := range []struct {
		name  string
		codec Codec
	}{
		{"xorbas10_6_5", NewXorbasCodec()},
		{"rs10_4", NewRS104Codec()},
	} {
		t.Run(sc.name, func(t *testing.T) {
			fb := NewFaultBackend(NewMemBackend(), 7)
			s, err := New(Config{Codec: sc.codec, Backend: fb, Nodes: 20, BlockSize: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			const size = 2 << 20
			want := patternBytes(t, size)
			if err := s.Put("obj", want); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{3, 7, 11} {
				fb.SetFault(n, Fault{CorruptRate: 0.2, ErrRate: 0.1})
			}
			victim, _, err := s.BlockLocation("obj", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.KillNode(victim)

			rm := NewRepairManager(s, 2)
			rm.Start()
			defer rm.Stop()
			scr := NewScrubber(s, rm, 0)

			// Reads under chaos: always correct bytes or a clean error,
			// never silent corruption.
			for i := 0; i < 10; i++ {
				got, _, err := s.Get("obj")
				if err != nil {
					continue // an unlucky roll can exhaust a stripe's survivors
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("get %d served corrupt bytes", i)
				}
			}

			// The drain completes despite injected read failures; chaos can
			// leave stripes unrepaired on an attempt (partial progress), so
			// walk-and-drain until health, bounded.
			healthy := false
			for i := 0; i < 25 && !healthy; i++ {
				scr.ScrubPresence()
				rm.Drain()
				healthy = true
				for pos := 0; pos < s.Codec().NStored(); pos++ {
					node, key, err := s.BlockLocation("obj", 0, pos)
					if err != nil {
						t.Fatal(err)
					}
					if !s.Alive(node) {
						healthy = false
						break
					}
					if _, err := fb.inner.Read(node, key); err != nil {
						healthy = false
						break
					}
				}
			}
			if !healthy {
				t.Fatal("repair drains never restored stripe 0 to full health")
			}

			// Chaos off: the repaired object is byte-exact and clean.
			for _, n := range []int{3, 7, 11} {
				fb.SetFault(n, Fault{})
			}
			got, _, err := s.Get("obj")
			if err != nil {
				t.Fatalf("get after repair: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("repair wrote corrupt bytes")
			}
		})
	}
}

// TestFaultBackendInjection pins the wrapper's own semantics: injected
// errors are ErrInjected, injected corruption never mutates the stored
// bytes, and a zero Fault heals the node.
func TestFaultBackendInjection(t *testing.T) {
	inner := NewMemBackend()
	fb := NewFaultBackend(inner, 42)
	block := FrameBlock([]byte("pristine"))
	if err := fb.Write(0, "k", block); err != nil {
		t.Fatal(err)
	}

	fb.SetFault(0, Fault{ErrRate: 1})
	if _, err := fb.Read(0, "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if err := fb.Write(0, "k2", block); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected on write, got %v", err)
	}

	fb.SetFault(0, Fault{CorruptRate: 1})
	got, err := fb.Read(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, block) {
		t.Fatal("CorruptRate 1 returned pristine bytes")
	}
	if _, err := UnframeBlock(got); err == nil {
		t.Fatal("corrupted frame still passed its CRC")
	}
	stored, err := inner.Read(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, block) {
		t.Fatal("injected corruption mutated the stored bytes")
	}

	fb.SetFault(0, Fault{})
	if got, err := fb.Read(0, "k"); err != nil || !bytes.Equal(got, block) {
		t.Fatalf("healed node still misbehaves: %v", err)
	}
}

// TestFaultBackendReadInto: ReadInto sits behind the same gate as Read —
// errors and latency apply — and hands dst to an inner backend
// that takes one. Corruption goes where a bad wire would put it: into
// dst, in place, when the block was delivered there, and onto a copy
// when the inner backend answered with memory of its own (here its
// stored block); the stored bytes are never touched either way.
func TestFaultBackendReadInto(t *testing.T) {
	block := FrameBlock([]byte("pristine"))
	for _, tc := range []struct {
		name  string
		inner Backend
		lends bool // inner delivers into dst
	}{
		{"inner takes a buffer", &lendingBackend{MemBackend: NewMemBackend()}, true},
		{"inner has only Read", NewMemBackend(), false},
	} {
		fb := NewFaultBackend(tc.inner, 42)
		if err := fb.Write(0, "k", block); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, len(block)+8)
		inDst := func(b []byte) bool { return len(b) > 0 && &b[0] == &dst[0] }

		got, err := fb.ReadInto(0, "k", dst)
		if err != nil || !bytes.Equal(got, block) || inDst(got) != tc.lends {
			t.Fatalf("%s: healthy read: err %v, exact %v, in dst %v", tc.name, err, bytes.Equal(got, block), inDst(got))
		}
		if got, err := fb.ReadInto(0, "k", dst[:0:len(block)-1]); err != nil || !bytes.Equal(got, block) || inDst(got) {
			t.Fatalf("%s: a block that does not fit: err %v, exact %v, in dst %v", tc.name, err, bytes.Equal(got, block), inDst(got))
		}

		fb.SetFault(0, Fault{ErrRate: 1})
		if _, err := fb.ReadInto(0, "k", dst); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: want ErrInjected, got %v", tc.name, err)
		}
		fb.SetFault(0, Fault{Latency: 20 * time.Millisecond})
		start := time.Now()
		if _, err := fb.ReadInto(0, "k", dst); err != nil || time.Since(start) < 20*time.Millisecond {
			t.Fatalf("%s: injected latency: err %v after %v", tc.name, err, time.Since(start))
		}

		fb.SetFault(0, Fault{CorruptRate: 1})
		got, err = fb.ReadInto(0, "k", dst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnframeBlock(got); err == nil {
			t.Fatalf("%s: corrupted frame still passed its CRC", tc.name)
		}
		if inDst(got) != tc.lends {
			t.Fatalf("%s: corrupted block in dst = %v, want %v", tc.name, inDst(got), tc.lends)
		}
		if stored, err := tc.inner.Read(0, "k"); err != nil || !bytes.Equal(stored, block) {
			t.Fatalf("%s: injected corruption mutated the stored bytes (err %v)", tc.name, err)
		}
	}
}

// TestFaultBackendDeleteMany: DeleteMany sits behind the same gate as
// Delete — errors and latency apply, one roll for the whole
// call, and an injected failure deletes nothing — and reaches an inner
// BatchDeleter as one call, or an inner backend without one key by key.
func TestFaultBackendDeleteMany(t *testing.T) {
	block := FrameBlock([]byte("doomed"))
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10", "k11", "k12", "k13", "k14", "k15"}
	for _, tc := range []struct {
		name  string
		batch bool // inner takes DeleteMany
	}{
		{"inner takes a key list", true},
		{"inner has only Delete", false},
	} {
		mb := NewMemBackend()
		rec := newIORecorder(mb)
		var inner Backend = rec
		if !tc.batch {
			inner = struct{ Backend }{rec} // hides DeleteMany
		}
		fb := NewFaultBackend(inner, 42)
		for _, k := range keys {
			if err := fb.Write(0, k, block); err != nil {
				t.Fatal(err)
			}
		}

		fb.SetFault(0, Fault{ErrRate: 1})
		if err := fb.DeleteMany(0, keys); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: want ErrInjected, got %v", tc.name, err)
		}
		if got := mb.BlockCount(0); got != len(keys) {
			t.Fatalf("%s: an injected failure deleted %d blocks", tc.name, len(keys)-got)
		}

		// One roll, so one injected delay for the whole list, not one per
		// key.
		const lat = 25 * time.Millisecond
		fb.SetFault(0, Fault{Latency: lat})
		start := time.Now()
		if err := fb.DeleteMany(0, keys[:8]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := time.Since(start); d < lat || d >= 8*lat {
			t.Fatalf("%s: deleting 8 keys behind a %v gate took %v, want one gate", tc.name, lat, d)
		}
		fb.SetFault(0, Fault{})
		if err := fb.DeleteMany(0, keys[8:]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := mb.BlockCount(0); got != 0 {
			t.Fatalf("%s: %d blocks survived", tc.name, got)
		}
		wantBatches, wantDeletes := int64(2), int64(0)
		if !tc.batch {
			wantBatches, wantDeletes = 0, int64(len(keys))
		}
		if b, d := rec.reqs("DeleteMany"), rec.reqs("Delete"); b != wantBatches || d != wantDeletes {
			t.Fatalf("%s: inner saw %d DeleteMany and %d Delete calls, want %d and %d", tc.name, b, d, wantBatches, wantDeletes)
		}
	}
}
