package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/pattern"
)

func TestStreamRoundTrip(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	rng := rand.New(rand.NewSource(21))
	k := s.Codec().K()
	sizes := []int{0, 1, 17, 127, 128, 128 * k, 128*k + 1, 3*128*k - 5}
	for _, n := range sizes {
		name := fmt.Sprintf("stream-%d", n)
		want := randBytes(rng, n)
		if err := s.PutReader(name, bytes.NewReader(want)); err != nil {
			t.Fatalf("PutReader(%d bytes): %v", n, err)
		}
		var buf bytes.Buffer
		info, err := s.GetWriter(name, &buf)
		if err != nil {
			t.Fatalf("GetWriter(%d bytes): %v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("GetWriter(%d bytes): payload mismatch", n)
		}
		if info.Degraded {
			t.Fatalf("GetWriter(%d bytes): unexpectedly degraded", n)
		}
		if info.BytesWritten != int64(n) {
			t.Fatalf("GetWriter(%d bytes): BytesWritten = %d", n, info.BytesWritten)
		}
		// The buffered wrappers see the same bytes.
		got, _, err := s.Get(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d bytes) after PutReader: err %v", n, err)
		}
	}
}

// TestWholeObjectReadCost pins what a whole-object read fetches, through
// every entry point, against a backend that counts for itself: k data
// blocks per stripe — the padding-only tail positions of a final stripe
// too short to reach block k-1 included — and nothing else. The numbers
// are the ones the read path produced before Get, GetWriter and getRange
// shared one implementation.
func TestWholeObjectReadCost(t *testing.T) {
	const bs = 128
	rec := newIORecorder(NewMemBackend())
	s := newTestStore(t, Config{Backend: rec, BlockSize: bs})
	defer s.Close()
	k := s.Codec().K()
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct {
		size           int
		blocks, frames int64 // backend reads, and their total framed bytes
	}{
		{2 * bs * k, 20, 20 * (4 + bs)},              // full stripes only
		{bs*k + 5*bs + 3, 20, 10*(4+bs) + 10*(4+65)}, // short final stripe, every block has data
		{bs*k + 13, 20, 10*(4+bs) + 10*(4+2)},        // tiny final stripe: 7 data blocks, 3 padding-only
		{5, 10, 10 * (4 + 1)},                        // sub-k object: 5 data blocks, 5 padding-only
		{0, 0, 0},
	} {
		name := fmt.Sprintf("cost-%d", c.size)
		want := randBytes(rng, c.size)
		if err := s.Put(name, want); err != nil {
			t.Fatal(err)
		}
		reads := map[string]func() (ReadInfo, []byte, error){
			"Get": func() (ReadInfo, []byte, error) {
				got, info, err := s.Get(name)
				return info, got, err
			},
			"GetWriter": func() (ReadInfo, []byte, error) {
				var buf bytes.Buffer
				info, err := s.GetWriter(name, &buf)
				return info, buf.Bytes(), err
			},
			"getRange(0,-1)": func() (ReadInfo, []byte, error) {
				var buf bytes.Buffer
				info, err := getRange(s, name, 0, -1, &buf)
				return info, buf.Bytes(), err
			},
		}
		for via, read := range reads {
			before := rec.reqs("Read", "ReadInto")
			info, got, err := read()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s of %d bytes: err %v", via, c.size, err)
			}
			wantInfo := ReadInfo{BlocksRead: c.blocks, BytesRead: c.frames, BytesWritten: int64(c.size)}
			if info != wantInfo {
				t.Fatalf("%s of %d bytes: %+v, want %+v", via, c.size, info, wantInfo)
			}
			if n := rec.reqs("Read", "ReadInto") - before; n != c.blocks {
				t.Fatalf("%s of %d bytes: backend saw %d reads, ReadInfo says %d", via, c.size, n, c.blocks)
			}
		}
	}
	// A window that is not the whole object reads covering blocks only,
	// even when it takes a stripe in full: the 13-byte final stripe is 7
	// two-byte blocks, and its 3 padding-only positions stay unread.
	var buf bytes.Buffer
	info, err := getRange(s, fmt.Sprintf("cost-%d", bs*k+13), int64(bs*k), -1, &buf)
	if want := (ReadInfo{BlocksRead: 7, BytesRead: 7 * (4 + 2), BytesWritten: 13}); err != nil || info != want {
		t.Fatalf("tail-stripe getRange: %+v, err %v, want %+v", info, err, want)
	}
}

// TestStreamingDegradedLightReads pins the acceptance criterion: a
// streaming Get over a single-loss stripe still takes the light local
// decode, whose 5-block read set shares 4 members with the data blocks
// already in hand — exactly one extra fetch beyond the k data reads.
func TestStreamingDegradedLightReads(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 256})
	rng := rand.New(rand.NewSource(22))
	const stripes = 4
	want := randBytes(rng, 256*10*stripes)
	if err := s.PutReader("x", bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	node, key, err := s.BlockLocation("x", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().(*MemBackend).Delete(node, key); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	info, err := s.GetWriter("x", &buf)
	if err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("degraded GetWriter: err %v", err)
	}
	if !info.Degraded || info.LightRepairs != 1 || info.HeavyRepairs != 0 {
		t.Fatalf("info = %+v, want one light repair", info)
	}
	// 10 data reads per clean stripe, 9 on the damaged one, plus the one
	// group member of the 5-block light set not already held.
	if want := int64(stripes * 10); info.BlocksRead != want {
		t.Fatalf("read %d blocks, want %d (light set adds exactly one fetch)", info.BlocksRead, want)
	}
}

// failingReader errors after yielding n bytes.
type failingReader struct {
	n   int
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	n := len(p)
	if n > f.n {
		n = f.n
	}
	f.n -= n
	return n, nil
}

func TestPutReaderMidStreamFailureRollsBack(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64})
	boom := errors.New("disk on fire")
	// Enough for a few stripes before the reader dies.
	err := s.PutReader("doomed", &failingReader{n: 64 * 10 * 3, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("PutReader: err %v, want %v", err, boom)
	}
	if _, _, err := s.Get("doomed"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("Get after failed PutReader: err %v, want ErrObjectNotFound", err)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	mb := s.Backend().(*MemBackend)
	for n := 0; n < s.Nodes(); n++ {
		if c := mb.BlockCount(n); c != 0 {
			t.Fatalf("node %d holds %d orphaned blocks after rollback", n, c)
		}
	}
}

// failAfterWriter fails every write past a byte budget — the
// cannot-rewind half of GetWriter's contract.
type failAfterWriter struct {
	budget int
	err    error
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > f.budget {
		n := f.budget
		f.budget = 0
		return n, f.err
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestGetWriterPropagatesWriterError(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 64})
	rng := rand.New(rand.NewSource(23))
	if err := s.PutReader("w", bytes.NewReader(randBytes(rng, 64*10*2))); err != nil {
		t.Fatal(err)
	}
	sink := errors.New("pipe closed")
	if _, err := s.GetWriter("w", &failAfterWriter{budget: 100, err: sink}); !errors.Is(err, sink) {
		t.Fatalf("GetWriter: err %v, want %v", err, sink)
	}
}

func TestGetWriterNotFound(t *testing.T) {
	s := newTestStore(t, Config{})
	if _, err := s.GetWriter("ghost", io.Discard); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("GetWriter of missing object: err %v", err)
	}
}

// TestStreamingBoundedMemory: a 256 MiB object round-trips through
// PutReader/GetWriter on a disk backend under a 64 MiB GOMEMLIMIT, a
// quarter of the object, while the heap footprint stays bounded by
// stripes, far under the object size. HeapSys only grows, so its delta
// is a high-water proxy; HeapAlloc after a forced GC is the retained
// live set.
func TestStreamingBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap; run without -race")
	}
	if testing.Short() {
		t.Skip("256 MiB round trip; skipped with -short")
	}
	const objectSize = 256 << 20
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(64 << 20))
	be, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config{Backend: be, BlockSize: 1 << 20}) // 10 MiB stripes
	var before, afterPut, afterGet runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	if err := s.PutReader("big", pattern.NewReader(objectSize)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&afterPut)
	if grew := int64(afterPut.HeapSys - before.HeapSys); grew > objectSize/2 {
		t.Fatalf("PutReader heap footprint grew %d MiB for a %d MiB object; not stripe-bounded", grew>>20, objectSize>>20)
	}

	v := &pattern.Verifier{}
	info, err := s.GetWriter("big", v)
	if err != nil {
		t.Fatal(err)
	}
	if v.Err != nil {
		t.Fatalf("round-trip bytes diverge: %v", v.Err)
	}
	if v.N != objectSize {
		t.Fatalf("GetWriter streamed %d bytes, want %d", v.N, objectSize)
	}
	if info.Degraded {
		t.Fatalf("clean read reported degraded: %+v", info)
	}
	if info.BytesRead < objectSize {
		t.Fatalf("read %d bytes for a %d-byte object", info.BytesRead, objectSize)
	}
	runtime.GC()
	runtime.ReadMemStats(&afterGet)
	if grew := int64(afterGet.HeapSys - before.HeapSys); grew > objectSize/2 {
		t.Fatalf("GetWriter heap footprint grew %d MiB for a %d MiB object; not stripe-bounded", grew>>20, objectSize>>20)
	}
	if retained := int64(afterGet.HeapAlloc) - int64(before.HeapAlloc); retained > 64<<20 {
		t.Fatalf("round trip retained %d MiB live heap", retained>>20)
	}
}

// TestPipelinedEngineConcurrentRace hammers the pipelined streaming
// engine from all sides at once: concurrent PutReader overwrites of the
// same object, GetWriter streams verifying the bytes, and a node
// kill/revive loop forcing degraded stripes mid-stream. Every version of
// the object carries the identical pattern payload, so any successful
// read must verify bit-exactly regardless of which version it pinned.
// Run under -race this also pins the engine's goroutine handoffs (double
// buffering, write pool, prefetch, version pins).
func TestPipelinedEngineConcurrentRace(t *testing.T) {
	const size = 64 * 10 * 4 // four stripes
	s := newTestStore(t, Config{Nodes: 24, Racks: 8, BlockSize: 64})
	if err := s.PutReader("obj", pattern.NewReader(size)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.PutReader("obj", pattern.NewReader(size)); err != nil {
					t.Errorf("PutReader under churn: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := &pattern.Verifier{}
				if _, err := s.GetWriter("obj", v); err != nil {
					t.Errorf("GetWriter under churn: %v", err)
					return
				}
				if v.Err != nil || v.N != size {
					t.Errorf("GetWriter bytes diverge: n=%d err=%v", v.N, v.Err)
					return
				}
			}
		}()
	}
	killRng := rand.New(rand.NewSource(77))
	for i := 0; i < 25; i++ {
		n := killRng.Intn(s.Nodes())
		s.KillNode(n)
		time.Sleep(time.Millisecond)
		s.ReviveNode(n)
	}
	close(stop)
	wg.Wait()
	// The store must settle to a clean, correct object.
	v := &pattern.Verifier{}
	if _, err := s.GetWriter("obj", v); err != nil || v.Err != nil || v.N != size {
		t.Fatalf("final GetWriter: err=%v verr=%v n=%d", err, v.Err, v.N)
	}
}
