package netblock

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// TestStreamRoundTrip moves a block through the BlockStreamer adapters:
// WriteBlockFrom writes it in one frame, ReadBlockTo returns it
// byte-exactly, and the plain ops see the same bytes.
func TestStreamRoundTrip(t *testing.T) {
	_, addr := startServer(t, store.NewMemBackend())
	c := dialTest(t, addr)

	rng := rand.New(rand.NewSource(42))
	payload := make([]byte, 10*1024+37)
	rng.Read(payload)
	frame := store.FrameBlock(payload)

	nw, err := c.WriteBlockFrom(0, "big.g000001.s00000.b00", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("WriteBlockFrom: %v", err)
	}
	if nw != int64(len(frame)) {
		t.Fatalf("WriteBlockFrom wrote %d bytes, want %d", nw, len(frame))
	}

	// The committed block is the whole frame, visible to a plain read.
	got, err := c.Read(0, "big.g000001.s00000.b00")
	if err != nil {
		t.Fatalf("Read after streamed write: %v", err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("streamed write and plain read disagree")
	}

	var buf bytes.Buffer
	nr, err := c.ReadBlockTo(0, "big.g000001.s00000.b00", &buf)
	if err != nil {
		t.Fatalf("ReadBlockTo: %v", err)
	}
	if nr != int64(len(frame)) || !bytes.Equal(buf.Bytes(), frame) {
		t.Fatalf("ReadBlockTo returned %d bytes, mismatch=%v", nr, !bytes.Equal(buf.Bytes(), frame))
	}
	if p, err := store.UnframeBlock(buf.Bytes()); err != nil || !bytes.Equal(p, payload) {
		t.Fatalf("streamed frame does not unframe: %v", err)
	}

	// An empty block streams too.
	if _, err := c.WriteBlockFrom(0, "empty.g000001.s00000.b00", bytes.NewReader(nil)); err != nil {
		t.Fatalf("empty WriteBlockFrom: %v", err)
	}
	buf.Reset()
	if n, err := c.ReadBlockTo(0, "empty.g000001.s00000.b00", &buf); err != nil || n != 0 {
		t.Fatalf("empty ReadBlockTo: n=%d err=%v", n, err)
	}
}

// TestStreamReadNotFound maps a missing block onto the store's
// sentinel, same as the plain read path.
func TestStreamReadNotFound(t *testing.T) {
	_, addr := startServer(t, store.NewMemBackend())
	c := dialTest(t, addr)
	var buf bytes.Buffer
	_, err := c.ReadBlockTo(0, "missing.g000001.s00000.b00", &buf)
	if !errors.Is(err, store.ErrBlockNotFound) {
		t.Fatalf("want ErrBlockNotFound, got %v", err)
	}
}

// TestStreamAbandonedUploadInvisible: a reader that fails mid-stream
// writes nothing — neither a torn block under a new key nor a
// replacement of an existing one.
func TestStreamAbandonedUploadInvisible(t *testing.T) {
	be := store.NewMemBackend()
	_, addr := startServer(t, be)
	c := dialTest(t, addr)
	old := store.FrameBlock([]byte("the block before"))
	if err := c.Write(0, "kept.g000001.s00000.b00", old); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"torn.g000001.s00000.b00", "kept.g000001.s00000.b00"} {
		r := &failingReader{data: make([]byte, 2048), failAt: 1500}
		if n, err := c.WriteBlockFrom(0, key, r); err == nil || n != 0 {
			t.Fatalf("%s: WriteBlockFrom over a failing reader = %d, %v; want 0 and the reader's error", key, n, err)
		}
	}
	if _, err := be.Read(0, "torn.g000001.s00000.b00"); !errors.Is(err, store.ErrBlockNotFound) {
		t.Fatalf("abandoned upload reached the backend: %v", err)
	}
	if got, err := be.Read(0, "kept.g000001.s00000.b00"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("abandoned upload replaced an existing block: %v", err)
	}
}

// failingReader yields its data then an error at failAt bytes.
type failingReader struct {
	data   []byte
	off    int
	failAt int
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.off >= f.failAt {
		return 0, errors.New("disk read error")
	}
	n := copy(p, f.data[f.off:])
	if f.off+n > f.failAt {
		n = f.failAt - f.off
	}
	f.off += n
	return n, nil
}

// TestClientAddNode grows the client at runtime: the new id is the old
// count, traffic reaches the new server, and an address-less node fails
// cleanly until SetNode repoints it.
func TestClientAddNode(t *testing.T) {
	be0 := store.NewMemBackend()
	_, addr0 := startServer(t, be0)
	c := dialTest(t, addr0)
	if n := c.Nodes(); n != 1 {
		t.Fatalf("Nodes() = %d, want 1", n)
	}

	be1 := store.NewMemBackend()
	_, addr1 := startServer(t, be1)
	id, err := c.AddNode(addr1)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || c.Nodes() != 2 {
		t.Fatalf("AddNode id=%d Nodes()=%d, want 1 and 2", id, c.Nodes())
	}
	frame := store.FrameBlock([]byte("on the new node"))
	if err := c.Write(id, "k.g000001.s00000.b00", frame); err != nil {
		t.Fatalf("write to added node: %v", err)
	}
	if _, err := be1.Read(1, "k.g000001.s00000.b00"); err != nil {
		t.Fatalf("added node's backend never saw the block: %v", err)
	}

	// Address-less registration (recovery's id alignment) fails fast
	// but doesn't poison the client.
	id2, err := c.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckNode(id2); err == nil {
		t.Fatal("ping of an address-less node should fail")
	}
	be2 := store.NewMemBackend()
	_, addr2 := startServer(t, be2)
	if err := c.SetNode(id2, addr2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckNode(id2); err != nil {
		t.Fatalf("ping after SetNode: %v", err)
	}
	if sent, _ := c.WireTraffic(); len(sent) != 3 {
		t.Fatalf("WireTraffic spans %d nodes, want 3", len(sent))
	}
	if hs := c.NodeHealth(); len(hs) != 3 {
		t.Fatalf("NodeHealth spans %d nodes, want 3", len(hs))
	}
}
