package netblock

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// startServer boots a server on an ephemeral loopback port and returns
// it with its address.
func startServer(t *testing.T, be store.Backend) (*Server, string) {
	t.Helper()
	srv, addr, err := StartLocal(be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func dialTest(t *testing.T, addrs ...string) *Client {
	t.Helper()
	c, err := Dial(addrs, Options{DialTimeout: time.Second, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientServerRoundTrip drives every op of the protocol over real
// TCP: write, read back (byte-exact), delete, read-not-found, ping.
func TestClientServerRoundTrip(t *testing.T) {
	be := store.NewMemBackend()
	_, addr := startServer(t, be)
	c := dialTest(t, addr)

	block := store.FrameBlock([]byte("the quick brown fox"))
	if err := c.Write(0, "obj.g000001.s00000.b00", block); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := c.Read(0, "obj.g000001.s00000.b00")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, block) {
		t.Fatalf("read returned %d bytes, want the %d written", len(got), len(block))
	}
	// The framed payload crossed the wire untouched: it still unframes.
	payload, err := store.UnframeBlock(got)
	if err != nil {
		t.Fatalf("unframe after round trip: %v", err)
	}
	if string(payload) != "the quick brown fox" {
		t.Fatalf("payload corrupted on the wire: %q", payload)
	}
	if err := c.CheckNode(0); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.Delete(0, "obj.g000001.s00000.b00"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Read(0, "obj.g000001.s00000.b00"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("read after delete: got %v, want ErrNotFound", err)
	}
	// Deleting a missing block is not an error (the Backend contract).
	if err := c.Delete(0, "never-existed"); err != nil {
		t.Fatalf("delete missing: %v", err)
	}
	// A rejected key comes back as the typed sentinel, matchable with
	// errors.Is exactly as a local backend's would be.
	if _, err := c.Read(0, ".."); !errors.Is(err, store.ErrBadKey) {
		t.Fatalf("read of hostile key: got %v, want ErrBadKey", err)
	}
}

// TestWireCounters checks the per-node sent/received accounting against
// the protocol's exact frame sizes.
func TestWireCounters(t *testing.T) {
	be := store.NewMemBackend()
	_, addr := startServer(t, be)
	c := dialTest(t, addr)

	key := "k"
	block := store.FrameBlock(make([]byte, 1000))
	if err := c.Write(0, key, block); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(0, key); err != nil {
		t.Fatal(err)
	}
	// A DeleteMany is one request — an 11-byte header with an empty key,
	// then each key as a 2-byte length and its bytes — and one bare
	// 5-byte answer.
	many := []string{key, "obj.g000001.s00000.b00", "x"}
	if err := c.DeleteMany(0, many); err != nil {
		t.Fatal(err)
	}
	sent, recv := c.WireTraffic()
	wantSent := requestWireLen(key, block) + requestWireLen(key, nil) + int64(11+(2+1)+(2+22)+(2+1))
	wantRecv := int64(respHeaderLen) + int64(respHeaderLen+len(block)) + 5
	if sent[0] != wantSent {
		t.Errorf("sent[0] = %d, want %d", sent[0], wantSent)
	}
	if recv[0] != wantRecv {
		t.Errorf("recv[0] = %d, want %d", recv[0], wantRecv)
	}
}

// TestRetryAfterServerRestart kills the server under a client holding a
// pooled connection, restarts it elsewhere, repoints the node, and
// checks the next operation succeeds: SetNode dropped the dead pooled
// socket, so the op goes out on a fresh dial to the new address.
func TestRetryAfterServerRestart(t *testing.T) {
	be := store.NewMemBackend()
	srv, addr := startServer(t, be)
	c := dialTest(t, addr)

	block := store.FrameBlock([]byte("survives a restart"))
	if err := c.Write(0, "k", block); err != nil {
		t.Fatal(err)
	}
	// Hard-stop the server: the client's pooled connection is now dead.
	srv.Close()
	_, addr2 := startServer(t, be)
	if err := c.SetNode(0, addr2); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0, "k")
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if !bytes.Equal(got, block) {
		t.Fatal("read after restart returned different bytes")
	}
}

// TestUnreachableNode checks that an op on a node nobody listens on
// fails after one dial with a useful error, not a hang.
func TestUnreachableNode(t *testing.T) {
	// Reserve a port and close it, so nothing is listening there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c, err := Dial([]string{addr}, Options{DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Read(0, "k"); err == nil {
		t.Fatal("read from a closed port succeeded")
	} else if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want an unreachable error, got: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("failure took %v; want one dial bounded by DialTimeout", d)
	}
}

// TestRemoteErrorDoesNotRetry checks that an application-level failure
// reported by the server comes back once, verbatim, without burning
// retries or the connection.
func TestRemoteErrorDoesNotRetry(t *testing.T) {
	be := newFailingBackend()
	_, addr := startServer(t, be)
	c := dialTest(t, addr)
	err := c.Write(0, "k", []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("want the remote error surfaced, got: %v", err)
	}
	if got := be.writes.Load(); got != 1 {
		t.Fatalf("server saw %d writes; remote errors must not retry", got)
	}
}

// TestBadAddressSetNode covers Dial and SetNode input validation.
func TestBadAddressSetNode(t *testing.T) {
	if _, err := Dial(nil, Options{}); err == nil {
		t.Fatal("Dial with no addresses succeeded")
	}
	if _, err := Dial([]string{""}, Options{}); err == nil {
		t.Fatal("Dial with an empty address succeeded")
	}
	c, err := Dial([]string{"127.0.0.1:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetNode(5, "127.0.0.1:2"); err == nil {
		t.Fatal("SetNode out of range succeeded")
	}
	if err := c.Write(-1, "k", nil); err == nil {
		t.Fatal("Write to node -1 succeeded")
	}
}

// TestOversizeKeyRejected checks the server survives a protocol
// violation (a key over the wire limit) by dropping the connection, and
// keeps serving new ones.
func TestOversizeKeyRejected(t *testing.T) {
	be := store.NewMemBackend()
	_, addr := startServer(t, be)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bogus := appendRequest(nil, opRead, 0, strings.Repeat("x", maxKeyLen+1), nil)
	if _, err := conn.Write(bogus); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered an oversize key instead of dropping the connection")
	}
	// The server is still healthy for well-formed clients.
	c := dialTest(t, addr)
	if err := c.CheckNode(0); err != nil {
		t.Fatalf("ping after violation: %v", err)
	}
}

// TestPayloadOnNonWriteRejected: only writes carry payloads, so a ping
// claiming one is a protocol violation — the server drops the
// connection without buffering the claimed bytes, and keeps serving
// well-formed clients.
func TestPayloadOnNonWriteRejected(t *testing.T) {
	be := store.NewMemBackend()
	_, addr := startServer(t, be)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bogus := appendRequest(nil, opPing, 0, "", []byte("junk"))
	if _, err := conn.Write(bogus); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a payload-bearing ping instead of dropping the connection")
	}
	c := dialTest(t, addr)
	if err := c.CheckNode(0); err != nil {
		t.Fatalf("ping after violation: %v", err)
	}
}

// TestRetiredOpsRejected sends the op bytes of the chunked-transfer ops
// the protocol no longer has — 'C' (windowed read), 'B', 'A', 'M'
// (staged upload begin, append, commit) — each framed as it once was.
// The parser refuses every one as an unknown op, and the server drops
// the connection without a reply: no request stages bytes for a later
// one, so nothing of the would-be upload reaches the backend.
func TestRetiredOpsRejected(t *testing.T) {
	be := store.NewMemBackend()
	_, addr := startServer(t, be)
	const key = "obj.g000001.s00000.b00"
	for _, tc := range []struct {
		op   byte
		data []byte
	}{
		{'C', make([]byte, 12)}, // offset(u64) maxLen(u32)
		{'B', nil},
		{'A', store.FrameBlock([]byte("staged"))},
		{'M', nil},
	} {
		frame := appendRequest(nil, tc.op, 0, key, tc.data)
		if _, err := readRequest(bytes.NewReader(frame)); err == nil {
			t.Errorf("op %q: readRequest accepted a retired op", tc.op)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("op %q: server answered instead of dropping the connection", tc.op)
		}
		conn.Close()
	}
	if _, err := be.Read(0, key); !errors.Is(err, store.ErrBlockNotFound) {
		t.Fatalf("a retired op reached the backend: %v", err)
	}
	if err := dialTest(t, addr).CheckNode(0); err != nil {
		t.Fatalf("ping after the retired ops: %v", err)
	}
}

// TestHostileRequestsRejected sends wire requests no real client emits —
// path-traversal keys, ".."/empty keys, a negative node id — and asserts
// the server answers statusBadKey without the backend ever seeing them.
// The backend is a DirBackend rooted one level below a temp dir, so a
// traversal key that slipped through would land a file outside the
// store root; the test checks none does.
func TestHostileRequestsRejected(t *testing.T) {
	root := t.TempDir()
	be, err := store.NewDirBackend(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, be)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := store.FrameBlock([]byte("owned"))
	hostile := []struct {
		op   byte
		node int
		key  string
		data []byte
	}{
		{opWrite, 0, "../../escape", payload},
		{opRead, 0, "../../../../etc/passwd", nil},
		{opDelete, 0, "..", nil},
		{opRead, 0, ".", nil},
		{opWrite, 0, "", payload},
		{opRead, -1, "obj.g000001.s00000.b00", nil},
		{opWrite, -7, "obj.g000001.s00000.b00", payload},
		// The traversal keys once more, as one key list.
		{opDeleteMany, 0, "", appendKeyList(nil, []string{"obj.g000001.s00000.b00", "../../escape", "../../../../etc/passwd", "..", "."})},
	}
	for _, tc := range hostile {
		if _, err := conn.Write(appendRequest(nil, tc.op, tc.node, tc.key, tc.data)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		status, body, _, err := readResponse(conn, nil, nil)
		if err != nil {
			t.Fatalf("op %q node %d key %q: %v", tc.op, tc.node, tc.key, err)
		}
		if status != statusBadKey {
			t.Fatalf("op %q node %d key %q: status %d (%q), want statusBadKey",
				tc.op, tc.node, tc.key, status, body)
		}
	}
	// Nothing escaped the store root: the traversal write would have
	// landed at root/escape.
	if _, err := os.Stat(filepath.Join(root, "escape")); !os.IsNotExist(err) {
		t.Fatalf("traversal write escaped the store root (stat err %v)", err)
	}
	// The connection survived the rejections and well-formed requests
	// still work on it and on fresh clients.
	c := dialTest(t, addr)
	if err := c.CheckNode(0); err != nil {
		t.Fatalf("ping after hostile requests: %v", err)
	}
}

// TestDeleteManyRejectsWholeList: a key list whose framing is broken, or
// with one key the single-key ops would refuse anywhere in it, is
// answered statusBadKey and deletes nothing — not even the good keys
// ahead of the bad one. A well-formed list deletes every key, missing
// ones included.
func TestDeleteManyRejectsWholeList(t *testing.T) {
	be, err := store.NewDirBackend(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, be)
	c := dialTest(t, addr)
	good := []string{"a.g000001.s00000.b00", "b.g000001.s00000.b01", "c.g000001.s00000.b02"}
	for _, k := range good {
		if err := c.Write(0, k, store.FrameBlock([]byte(k))); err != nil {
			t.Fatal(err)
		}
	}
	list := func(keys ...string) []byte { return appendKeyList(nil, keys) }

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, tc := range []struct {
		name, key string
		data      []byte
	}{
		{"truncated length prefix", "", append(list(good...), 5)},
		{"key runs past the payload", "", append(list(good...), 16, 0, 'x')},
		{"key over the wire limit", "", list(good[0], strings.Repeat("x", maxKeyLen+1))},
		{"empty key", "", list(good[0], "", good[1])},
		{"dot-dot", "", list(good[0], good[1], "..")},
		{"slash", "", list("a/b", good[0])},
		{"byte outside the charset", "", list(good[0], "k\x00ey")},
		{"traversal", "", list(good[0], "../../escape")},
		{"key in the header", good[2], list(good[0])},
	} {
		if _, err := conn.Write(appendRequest(nil, opDeleteMany, 0, tc.key, tc.data)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		status, body, _, err := readResponse(conn, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if status != statusBadKey {
			t.Fatalf("%s: status %d (%q), want statusBadKey", tc.name, status, body)
		}
		for _, k := range good {
			if _, err := c.Read(0, k); err != nil {
				t.Fatalf("%s: a refused list deleted %s (%v)", tc.name, k, err)
			}
		}
	}

	if err := c.DeleteMany(0, append(good, "never-existed")); err != nil {
		t.Fatal(err)
	}
	for _, k := range good {
		if _, err := c.Read(0, k); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("%s after DeleteMany: err %v, want ErrNotFound", k, err)
		}
	}
	if err := c.DeleteMany(0, []string{"ok", ".."}); !errors.Is(err, store.ErrBadKey) {
		t.Fatalf("DeleteMany with a hostile key: err %v, want ErrBadKey", err)
	}
}

// failingBackend rejects every write with a stable message.
type failingBackend struct {
	*store.MemBackend
	writes atomic.Int64
}

func newFailingBackend() *failingBackend {
	return &failingBackend{MemBackend: store.NewMemBackend()}
}

func (f *failingBackend) Write(node int, key string, data []byte) error {
	f.writes.Add(1)
	return errors.New("disk full")
}

// WriteOwned keeps the failure visible through the server's owned-write
// fast path, which would otherwise reach the embedded MemBackend's.
func (f *failingBackend) WriteOwned(node int, key string, data []byte) error {
	return f.Write(node, key, data)
}
