package netblock

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
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
				_, _, _, err := readResponse(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(body)), nil, nil)
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

// aliases reports whether b starts at dst's first byte: b is dst's
// memory, not a buffer of its own.
func aliases(b, dst []byte) bool {
	return len(b) > 0 && cap(dst) > 0 && &b[0] == &dst[:1][0]
}

// scriptedNode is a block server played from a script: the i-th
// connection the client opens is handed to serve(i, conn) once its first
// request has been read, and closed when serve returns.
func scriptedNode(t *testing.T, serve func(i int, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := readRequest(conn); err == nil {
				serve(i, conn)
			}
			conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return ln.Addr().String()
}

// TestReadIntoContract holds Client.ReadInto and readResponse's caller
// buffer to what their comments promise. A block that fits cap(dst)
// arrives in dst and allocates no buffer; with cap(dst) one byte short,
// or no dst, it arrives as from Read — a buffer of exactly its length.
// A header claiming more than cap(dst) pins what readBody allows and no
// more. Statuses map onto the same errors as Read's, and the error keeps
// nothing of dst. A pooled connection that drops mid-body leaves part of
// a body in dst; the fresh dial that replaces it receives into the same
// dst and the bytes are exact. A fresh connection that drops fails the
// op.
func TestReadIntoContract(t *testing.T) {
	const key = "obj.g000001.s00000.b00"
	block := store.FrameBlock(patternBytes(t, 1<<20))
	_, addr := startServer(t, store.NewMemBackend())
	c := dialTest(t, addr)
	if err := c.Write(0, key, block); err != nil {
		t.Fatal(err)
	}
	dirty := func(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }
	for _, tc := range []struct {
		name string
		dst  []byte
		fits bool
	}{
		{"exact", dirty(len(block)), true},
		{"roomy", dirty(len(block) + 100)[:7], true}, // cap decides, not len
		{"one short", dirty(len(block) - 1), false},
		{"nil", nil, false},
	} {
		if _, err := c.ReadInto(0, key, tc.dst); err != nil { // the connection and its buffers, unmeasured
			t.Fatal(err)
		}
		var got []byte
		var err error
		alloc := allocBytes(func() { got, err = c.ReadInto(0, key, tc.dst) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, block) {
			t.Fatalf("%s: block did not round-trip", tc.name)
		}
		if in := aliases(got, tc.dst); in != tc.fits {
			t.Errorf("%s: result aliases dst = %v, want %v", tc.name, in, tc.fits)
		}
		if !tc.fits && cap(got) != len(got) {
			t.Errorf("%s: own buffer has len %d cap %d", tc.name, len(got), cap(got))
		}
		if raceEnabled {
			continue
		}
		if tc.fits && alloc > allocSlack {
			t.Errorf("%s: a read into the caller's buffer allocated %d bytes, want <= %d", tc.name, alloc, allocSlack)
		}
		if !tc.fits && alloc > len(block)+allocSlack {
			t.Errorf("%s: allocated %d bytes, want <= %d", tc.name, alloc, len(block)+allocSlack)
		}
	}

	// Hostile header: 1 GiB claimed against a 1 MiB dst, ten bytes sent.
	dst := dirty(1 << 20)
	hdr := []byte{statusOK, 0, 0, 0, 0x40}
	var err error
	alloc := allocBytes(func() {
		_, _, _, err = readResponse(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(block[:10])), nil, dst)
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("hostile header: err = %v, want ErrUnexpectedEOF", err)
	}
	if !raceEnabled && alloc > pinBound(10) {
		t.Errorf("hostile header: allocated %d bytes, want <= %d", alloc, pinBound(10))
	}
	// A short body into a dst that fits is the same error, not io.EOF.
	hdr = []byte{statusOK, 16, 0, 0, 0}
	if _, _, _, err := readResponse(bytes.NewReader(hdr), nil, dst); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body missing entirely: err = %v, want ErrUnexpectedEOF", err)
	}

	// Statuses, with a dst the error message fits in.
	if _, err := c.ReadInto(0, "obj.g000009.s00000.b00", dst); !errors.Is(err, store.ErrBlockNotFound) {
		t.Errorf("missing block: err = %v, want ErrBlockNotFound", err)
	}
	sick := scriptedNode(t, func(_ int, conn net.Conn) {
		writeResponse(conn, statusError, []byte("disk on fire"))
	})
	cs := dialTest(t, sick)
	_, err = cs.ReadInto(0, key, dst)
	clear(dst) // the error must not be a view of the caller's buffer
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("remote error: err = %v, want the node's message", err)
	}

	// A body that drops halfway: the header and half a body of 0xEE.
	half := func(conn net.Conn) {
		var frame bytes.Buffer
		writeResponse(&frame, statusOK, bytes.Repeat([]byte{0xEE}, len(block)))
		conn.Write(frame.Bytes()[:respHeaderLen+len(block)/2])
	}
	// On a pooled socket the drop is passed over for free: connection 0
	// answers a probe, is pooled, and drops the read that reuses it;
	// connection 1, freshly dialed, answers in full, into the same dst.
	pooledDrop := scriptedNode(t, func(i int, conn net.Conn) {
		if i > 0 {
			writeResponse(conn, statusOK, block)
			return
		}
		writeResponse(conn, statusOK, nil)
		if _, err := readRequest(conn); err == nil {
			half(conn)
		}
	})
	cp := dialTest(t, pooledDrop)
	if err := cp.CheckNode(0); err != nil {
		t.Fatal(err)
	}
	dst = dirty(len(block))
	got, err := cp.ReadInto(0, key, dst)
	if err != nil {
		t.Fatalf("read across a pooled socket's mid-body drop: %v", err)
	}
	if !aliases(got, dst) || !bytes.Equal(got, block) {
		t.Errorf("read across a pooled socket's mid-body drop: aliases dst %v, bytes exact %v", aliases(got, dst), bytes.Equal(got, block))
	}
	// On a freshly dialed socket the drop is final, and the error keeps
	// nothing of the half body dst received.
	freshDrop := scriptedNode(t, func(_ int, conn net.Conn) { half(conn) })
	cf := dialTest(t, freshDrop)
	dst = dirty(len(block))
	got, err = cf.ReadInto(0, key, dst)
	if err == nil || got != nil {
		t.Fatalf("read across a fresh socket's mid-body drop: %d bytes, err %v; want a failed op", len(got), err)
	}
	msg := err.Error()
	clear(dst)
	if err.Error() != msg {
		t.Errorf("the error of a dropped read is a view of dst: %q became %q", msg, err.Error())
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
