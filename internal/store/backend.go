package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/meta"
)

// Backend stores opaque block bytes for simulated nodes. Implementations
// must be safe for concurrent use; the store never relies on a backend to
// detect corruption (blocks are framed with a CRC above this layer).
type Backend interface {
	// Write stores a block, replacing any previous value. data is a
	// window of a pooled stripe slab (or a repair worker's scratch) that
	// the store overwrites with another stripe after Write returns, so
	// implementations must copy or persist the bytes, never retain the
	// slice.
	Write(node int, key string, data []byte) error
	// Read returns the block bytes, or an error wrapping
	// ErrBlockNotFound. The returned slice may alias the backend's own
	// storage (MemBackend's stored block) or be a buffer the caller now
	// owns (DirBackend, the netblock client); either way nothing will
	// write to it again, so it may be kept — the block cache does — and
	// callers must treat it as read-only (every consumer in the store
	// does — payloads are decoded, verified and served, never edited in
	// place).
	Read(node int, key string) ([]byte, error)
	// Delete removes the block; deleting a missing block is not an error.
	Delete(node int, key string) error
}

// OwnedWriter is an optional Backend fast path: WriteOwned stores a block
// taking ownership of data's backing array, so an in-memory backend can
// keep the slice instead of copying it. The caller must never touch data
// again after a successful WriteOwned. Its one caller is the block server
// (netblock.Server), which hands a node's backend the exactly-sized
// buffer it received a request into — a buffer nobody else will want
// back. The store itself never calls it: it keeps its stripe slabs for
// the next stripe, so every block it writes goes through Write.
type OwnedWriter interface {
	WriteOwned(node int, key string, data []byte) error
}

// IntoReader is an optional Backend fast path for reads whose bytes are
// needed only until a decode has consumed them: ReadInto is Read with the
// caller supplying the buffer. A block that fits cap(dst) is delivered in
// dst and returned as dst[:len]; otherwise — the block is larger, dst is
// nil, or the implementation had the bytes elsewhere already — the result
// is whatever Read would have returned and dst is not part of it. So the
// caller must use the returned slice and never dst, stays the owner of
// dst throughout (the backend keeps no reference past return), and must
// not let the result outlive dst's next use. After an error dst may hold
// part of a block. The store's one caller is readBlockPayload, which
// lends pooled frames for the source blocks of a repair or degraded read,
// for a joiner fill and for the blocks a GET wants but the cache declines
// to keep (all of them when the store has no cache), and a repair's
// re-probe its slab slots; a backend without ReadInto (MemBackend,
// DirBackend) is simply read through Read.
type IntoReader interface {
	ReadInto(node int, key string, dst []byte) ([]byte, error)
}

// readInto reads a block with dst lent for it: through b's ReadInto when
// b has one and there is a dst to lend, through Read otherwise. Either
// way the caller uses the returned slice, never dst.
func readInto(b Backend, node int, key string, dst []byte) ([]byte, error) {
	if ir, ok := b.(IntoReader); ok && dst != nil {
		return ir.ReadInto(node, key, dst)
	}
	return b.Read(node, key)
}

// BatchDeleter is an optional Backend fast path for reclamation:
// DeleteMany removes every listed block from one node in one call, which
// over a network is one round trip where Delete costs one per key.
// Deleting a missing block is not an error. After an error any of the
// keys may remain, and the caller retries all of them, so an
// implementation need not say which failed. Its one caller is the
// reclaimer (reclaim.go), the only place the store deletes a block: it
// sends one DeleteMany per node per batch, and a backend without it
// (MemBackend, DirBackend) one Delete per key instead.
type BatchDeleter interface {
	DeleteMany(node int, keys []string) error
}

// deleteMany removes keys from node: in one call when b is a
// BatchDeleter and there is more than one key, one Delete per key
// otherwise, stopping at the first failure (the caller retries the node's
// whole list either way).
func deleteMany(b Backend, node int, keys []string) error {
	if bd, ok := b.(BatchDeleter); ok && len(keys) > 1 {
		return bd.DeleteMany(node, keys)
	}
	for _, key := range keys {
		if err := b.Delete(node, key); err != nil {
			return err
		}
	}
	return nil
}

// WireStats is an optional Backend extension for backends that move
// blocks over a network: cumulative protocol bytes sent to and received
// from each node. Store.Metrics folds the totals in as
// WireSentBytes/WireRecvBytes, so the paper's repair-traffic claim can
// be read off real wire counters instead of in-process accounting.
type WireStats interface {
	WireTraffic() (sent, recv []int64)
}

// NodeAdder is an optional Backend extension for backends with per-node
// addressing (the netblock client): AddNode registers one more node and
// returns its id, which must equal the previous node count, and Nodes
// reports that count — what a reopening store has to register no second
// time. Backends addressed by plain integer index (MemBackend,
// DirBackend) accept any node id natively and don't implement it; the
// store then grows membership without a registration step.
// Implementations may return an error wrapping errors.ErrUnsupported
// from AddNode to decline.
type NodeAdder interface {
	AddNode(addr string) (int, error)
	Nodes() int
}

// BlockStreamer is an optional Backend extension for moving whole framed
// blocks through an io.Writer or io.Reader. ReadBlockTo writes a block's
// framed bytes into w and returns the byte count; WriteBlockFrom reads r
// into the block, replacing any previous value, atomically on success.
// The netblock client implements it with one wire frame each way, as
// every block transfer is. The store does not call it; it stays because
// the benchmark names it.
type BlockStreamer interface {
	ReadBlockTo(node int, key string, w io.Writer) (int64, error)
	WriteBlockFrom(node int, key string, r io.Reader) (int64, error)
}

// castagnoli is the CRC32C table (the polynomial HDFS uses for block
// checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the framed encoding of payload — the 4-byte
// little-endian CRC32C header followed by the payload bytes — to dst and
// returns the extended slice. With a reused dst (frame = AppendFrame(
// frame[:0], payload)) the hot paths frame blocks with no per-block
// allocation.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FrameBlock prepends the 4-byte little-endian CRC32C of the payload: the
// on-disk block format. The payload is copied into a fresh slice; inner
// loops should prefer AppendFrame with a reused buffer.
func FrameBlock(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, 4+len(payload)), payload)
}

// UnframeBlock validates and strips the CRC header, returning the payload
// (aliasing the input) or ErrCorrupt.
func UnframeBlock(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d-byte block has no header", ErrCorrupt, len(b))
	}
	payload := b[4:]
	if binary.LittleEndian.Uint32(b) != crc32.Checksum(payload, castagnoli) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// MemBackend keeps blocks in memory: the default for tests, benchmarks and
// the walkthrough examples.
type MemBackend struct {
	mu    sync.RWMutex
	nodes map[int]map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{nodes: make(map[int]map[string][]byte)}
}

// Write implements Backend.
func (m *MemBackend) Write(node int, key string, data []byte) error {
	return m.WriteOwned(node, key, append([]byte(nil), data...))
}

// WriteOwned implements OwnedWriter: the slice is stored directly, so a
// block server's receive buffer becomes the stored block with no copy.
func (m *MemBackend) WriteOwned(node int, key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	blocks := m.nodes[node]
	if blocks == nil {
		blocks = make(map[string][]byte)
		m.nodes[node] = blocks
	}
	blocks[key] = data
	return nil
}

// Read implements Backend. The returned slice aliases the stored block
// (the Backend contract makes reads read-only), so a memory-backed read
// costs a map lookup, not a copy. The alias stays valid after Delete or
// an overwriting Write: those replace the map entry, never the bytes.
func (m *MemBackend) Read(node int, key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.nodes[node][key]
	if !ok {
		return nil, fmt.Errorf("%w: node %d key %q", ErrBlockNotFound, node, key)
	}
	return b, nil
}

// Delete implements Backend.
func (m *MemBackend) Delete(node int, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.nodes[node], key)
	return nil
}

// Corrupt flips one payload byte of a stored block — a test and
// walkthrough hook simulating silent disk corruption. The mutation goes
// through a copy-on-write replacement of the map entry: Read hands out
// aliases of stored bytes, so the bytes themselves must stay immutable.
func (m *MemBackend) Corrupt(node int, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.nodes[node][key]
	if !ok {
		return fmt.Errorf("%w: node %d key %q", ErrBlockNotFound, node, key)
	}
	nb := append([]byte(nil), b...)
	nb[len(nb)-1] ^= 0xFF
	m.nodes[node][key] = nb
	return nil
}

// BlockCount returns how many blocks a node holds.
func (m *MemBackend) BlockCount(node int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.nodes[node])
}

// DirBackend stores each simulated node as a directory under root
// (root/node03/<key>), so a killed "node" is a directory you can inspect,
// corrupt or delete from the shell.
type DirBackend struct {
	root string
}

// tmpPrefix marks in-flight block writes. Block keys are sanitized to
// [A-Za-z0-9._-] (see blockKey), so a real block file can never start
// with '#' and the prefix is unambiguous to sweep.
const tmpPrefix = "#tmp-"

// NewDirBackend returns a backend rooted at dir, creating it if needed
// and sweeping temp files left by writers that crashed mid-Write. A
// store directory is owned by one process at a time (the CLI model), so
// any temp file present at open belongs to a dead writer.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "node*", tmpPrefix+"*"))
	for _, p := range stale {
		_ = os.Remove(p)
	}
	return &DirBackend{root: dir}, nil
}

// Path returns the file a block lives at (whether or not it exists).
func (d *DirBackend) Path(node int, key string) string {
	return filepath.Join(d.root, fmt.Sprintf("node%03d", node), key)
}

// Write implements Backend crash-safely: the bytes go to a uniquely
// named temp file in the block's own directory (same filesystem, so the
// rename is atomic), are fsynced, and only then renamed into place —
// then the node directory itself is fsynced, because the rename lives in
// the directory: without that a crash can lose the directory entry of a
// block the store already acked. A crash or kill mid-write leaves a
// stray temp file (swept at the next NewDirBackend), never a torn frame
// at the real key — the scrubber then sees a cleanly missing block to
// repair instead of silent corruption. The unique temp name also keeps
// concurrent writers of one key from interleaving into each other's
// file.
func (d *DirBackend) Write(node int, key string, data []byte) error {
	p := d.Path(node, key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), tmpPrefix+filepath.Base(p)+"-")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return meta.SyncDir(filepath.Dir(p))
}

// Read implements Backend.
func (d *DirBackend) Read(node int, key string) ([]byte, error) {
	b, err := os.ReadFile(d.Path(node, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: node %d key %q", ErrBlockNotFound, node, key)
	}
	return b, err
}

// Delete implements Backend.
func (d *DirBackend) Delete(node int, key string) error {
	err := os.Remove(d.Path(node, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
