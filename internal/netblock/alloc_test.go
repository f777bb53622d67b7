package netblock

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/pattern"
	"repro/internal/store"
)

// allocSlack absorbs what the runtime adds to a counted allocation — a
// large object is rounded up to whole 8 KiB pages — and the few small
// objects (readers, headers, keys) a measured call makes besides its
// buffer.
const allocSlack = 32 << 10

// allocBytes returns the heap bytes f allocates (live or not), as the
// process-wide runtime.MemStats.TotalAlloc delta: callers keep every
// other goroutine quiet while f runs.
func allocBytes(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// pinBound is readBody's pinned-memory contract (protocol.go) as a bound
// on everything a frame may allocate, given how many bytes really
// arrived: the largest buffer it may have reached, plus the smaller ones
// it grew through (under a third of that), plus slack.
func pinBound(received int) int {
	return max(readBodyEager, 4*received)*4/3 + allocSlack
}

func patternBytes(t testing.TB, n int) []byte {
	t.Helper()
	b, err := io.ReadAll(pattern.NewReader(int64(n)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadBodyContract holds readBody to what protocol.go promises, at
// sizes either side of every boundary it has: the bytes round-trip, the
// slice is exactly sized (cap == len), a frame up to readBodyEager — a
// 1 MiB block with its frame header and key included — is one
// allocation of its own length, and a larger one allocates under
// 4⁄3 of its length in total. Then the hostile direction: a header that
// claims the protocol maximum and delivers almost nothing pins the eager
// chunk and no more.
func TestReadBodyContract(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sizes := []int{0, 1, 64<<10 + 4, 1<<20 - 1, 1 << 20, 1<<20 + 4 + 34, 4<<20 + 38, 64<<20 + 38}
	src := patternBytes(t, sizes[len(sizes)-1])
	for _, n := range sizes {
		r := bytes.NewReader(src[:n])
		var got []byte
		var err error
		alloc := allocBytes(func() { got, err = readBody(r, n) })
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, src[:n]) {
			t.Fatalf("n=%d: bytes did not round-trip", n)
		}
		if cap(got) != len(got) {
			t.Errorf("n=%d: cap %d != len %d", n, cap(got), len(got))
		}
		bound := n + allocSlack
		if n > readBodyEager {
			bound = n*134/100 + allocSlack
		} else if n > 0 {
			if allocs := testing.AllocsPerRun(1, func() { r.Reset(src[:n]); readBody(r, n) }); allocs != 1 {
				t.Errorf("n=%d: %v allocations, want 1", n, allocs)
			}
		}
		if alloc > bound {
			t.Errorf("n=%d: allocated %d bytes (%.2f×), want <= %d", n, alloc, float64(alloc)/float64(n), bound)
		}
	}

	// Hostile headers: the claim is maxDataLen, the stream ends early.
	for _, sent := range []int{10, 3 << 20} {
		body := src[:sent]
		frames := map[string]func() error{
			"readBody": func() error {
				_, err := readBody(bytes.NewReader(body), maxDataLen)
				return err
			},
			"readRequest": func() error {
				hdr := appendHeader(nil, opWrite, 0, "k", maxDataLen)
				_, err := readRequest(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(body)))
				return err
			},
			"readResponse": func() error {
				hdr := []byte{statusOK, 0, 0, 0, 0x40} // dataLen = 1<<30
				_, _, _, err := readResponse(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(body)), nil)
				return err
			},
		}
		for name, f := range frames {
			var err error
			alloc := allocBytes(func() { err = f() })
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, %d of %d bytes sent: err = %v, want ErrUnexpectedEOF", name, sent, maxDataLen, err)
			}
			if alloc > pinBound(sent) {
				t.Errorf("%s, %d of %d bytes sent: allocated %d bytes, want <= %d", name, sent, maxDataLen, alloc, pinBound(sent))
			}
		}
	}
}

// ownedSpy records the slice the server hands the backend.
type ownedSpy struct {
	*store.MemBackend
	len, cap int
}

func (o *ownedSpy) WriteOwned(node int, key string, data []byte) error {
	o.len, o.cap = len(data), cap(data)
	return o.MemBackend.WriteOwned(node, key, data)
}

// TestLoopbackExactBuffers drives whole blocks Client → Server →
// MemBackend and back over real TCP: the slice the backend is handed
// (and keeps) and the slice Client.Read returns are exactly the block —
// cap == len — and each direction allocates, process-wide, barely more
// than the bytes it moves: one buffer per block on the receiving side
// (which the runtime rounds up to whole 8 KiB pages), nothing on the
// sending side. A 4 MiB block is past readBodyEager and pays the
// contract's extra quarter.
func TestLoopbackExactBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	be := &ownedSpy{MemBackend: store.NewMemBackend()}
	_, addr := startServer(t, be)
	c := dialTest(t, addr)
	const rounds = 8
	for _, size := range []int{64 << 10, 1 << 20, 4 << 20} {
		block := store.FrameBlock(patternBytes(t, size))
		perByte := 1.1
		if len(block) > readBodyEager {
			perByte = 1.35
		}
		bound := rounds * (int(perByte*float64(len(block))) + 8<<10)
		// Round 0 pays for the connection and its buffers, unmeasured.
		if err := c.Write(0, "warm", block); err != nil {
			t.Fatal(err)
		}
		var err error
		alloc := allocBytes(func() {
			for i := 0; i < rounds && err == nil; i++ {
				err = c.Write(0, "obj.g000001.s00000.b00", block)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if be.len != len(block) || be.cap != be.len {
			t.Errorf("%d-byte block: backend handed len %d cap %d", len(block), be.len, be.cap)
		}
		if alloc > bound {
			t.Errorf("%d-byte block: %d writes allocate %d bytes, want <= %d (%.2f per payload byte + a page)", len(block), rounds, alloc, bound, perByte)
		}
		var got []byte
		alloc = allocBytes(func() {
			for i := 0; i < rounds && err == nil; i++ {
				got, err = c.Read(0, "obj.g000001.s00000.b00")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, block) {
			t.Fatalf("%d-byte block did not round-trip", len(block))
		}
		if cap(got) != len(got) {
			t.Errorf("%d-byte block: Client.Read returned len %d cap %d", len(block), len(got), cap(got))
		}
		if alloc > bound {
			t.Errorf("%d-byte block: %d reads allocate %d bytes, want <= %d (%.2f per payload byte + a page)", len(block), rounds, alloc, bound, perByte)
		}
	}
}
