// Package meta is the store's persistent metadata plane: a durable
// key→value store built from a write-ahead log with group-committed
// batches, periodic checkpoints, and N hash-sharded in-memory indexes.
// It holds what must survive a crash but never the data bytes themselves
// — manifests, liveness, the repair queue — the separation that lets the
// metadata and storage planes scale independently.
//
// The write path is ack-means-durable: Commit returns only after the
// batch's WAL record is fsynced (concurrent commits share one fsync via
// group commit). The read path never touches the log: Get/View/Scan run
// against the sharded in-memory index under per-shard read locks, so
// lookups, scans and commits on different shards do not contend.
//
// Values are decoded once at write/replay time and handed out by
// reference, so they MUST be treated as immutable once stored. Mutations
// go through a Commit that stores a replacement value (copy-on-write);
// in exchange, Scan and View can hand out snapshots without deep copies.
package meta

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrClosed reports a commit against a DB that has already been closed.
// Callers race shutdown against in-flight work; errors.Is(err, ErrClosed)
// lets them treat the loss as orderly teardown rather than corruption.
var ErrClosed = errors.New("meta: DB closed")

// Codec translates stored values to and from their durable byte form.
// The key is passed so one DB can hold differently-typed records under
// different key prefixes (the store keeps manifests, liveness and repair
// queue entries in one plane).
type Codec interface {
	Encode(key string, v any) ([]byte, error)
	Decode(key string, b []byte) (any, error)
}

// RawCodec stores values as raw []byte — the default when no codec is
// given.
type RawCodec struct{}

// Encode implements Codec; v must be a []byte.
func (RawCodec) Encode(key string, v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("meta: RawCodec got %T, want []byte", v)
	}
	return b, nil
}

// Decode implements Codec, returning a copy of b (replay buffers are
// reused).
func (RawCodec) Decode(key string, b []byte) (any, error) {
	return append([]byte(nil), b...), nil
}

// Options configures a DB. Zero fields take defaults.
type Options struct {
	// Dir roots the durable state (WAL segment + checkpoint). "" keeps
	// the plane in memory only: same API and sharding, no durability —
	// the mode tests and in-memory stores run in.
	Dir string
	// Codec encodes and decodes stored values (default RawCodec).
	Codec Codec
}

// shards is the in-memory index shard count: commits, lookups and scans
// touching different keys contend on different locks.
const shards = 16

// checkpointEvery triggers an automatic checkpoint after that many WAL
// records, bounding both the WAL's size and replay time at open. A
// variable only so a test can lower it.
var checkpointEvery = 1 << 14

// shard is one slice of the in-memory index.
type shard struct {
	mu sync.RWMutex
	m  map[string]any
}

// DB is a durable, sharded key→value store. All methods are safe for
// concurrent use.
type DB struct {
	opts   Options
	shards []shard

	// commitMu serializes writers through stage→apply→WAL-append, so
	// the in-memory apply order always matches the log order (replay
	// must converge to the same state). It is NOT held across the fsync:
	// that wait is grouped in the WAL so concurrent commits share it.
	commitMu sync.Mutex
	wal      *walFile // nil for a memory-only plane
	// records counts WAL records since the last checkpoint (commitMu).
	records int
	closed  bool

	m counters
}

// counters is the internal atomic counter block (exported snapshot is
// Metrics).
type counters struct {
	walBytes      atomic.Int64
	commitBatches atomic.Int64
	commitRecords atomic.Int64
	replayed      atomic.Int64
	scans         atomic.Int64
	checkpoints   atomic.Int64
}

// Metrics is a point-in-time copy of the DB's counters.
type Metrics struct {
	// WALBytes is the cumulative bytes appended to the WAL (headers
	// included).
	WALBytes int64
	// CommitBatches counts fsync groups: concurrent commits that shared
	// one fsync count as one batch.
	CommitBatches int64
	// CommitRecords counts committed WAL records (one per Commit).
	CommitRecords int64
	// ReplayedRecords counts WAL records replayed at Open (checkpoint
	// entries not included).
	ReplayedRecords int64
	// IteratorScans counts Scan calls.
	IteratorScans int64
	// Checkpoints counts checkpoints written (Close's final one
	// included).
	Checkpoints int64
}

// Metrics returns a snapshot of the DB's counters.
func (db *DB) Metrics() Metrics {
	return Metrics{
		WALBytes:        db.m.walBytes.Load(),
		CommitBatches:   db.m.commitBatches.Load(),
		CommitRecords:   db.m.commitRecords.Load(),
		ReplayedRecords: db.m.replayed.Load(),
		IteratorScans:   db.m.scans.Load(),
		Checkpoints:     db.m.checkpoints.Load(),
	}
}

// Open opens (or creates) a metadata plane. With a Dir, recovery runs
// before Open returns: the checkpoint is loaded, then the WAL is
// replayed in order — tolerating a torn tail record from a crash
// mid-commit (never-acked, safely dropped) but failing loudly on
// corruption in the middle of the log.
func Open(opts Options) (*DB, error) {
	if opts.Codec == nil {
		opts.Codec = RawCodec{}
	}
	db := &DB{opts: opts, shards: make([]shard, shards)}
	for i := range db.shards {
		db.shards[i].m = make(map[string]any)
	}
	if opts.Dir == "" {
		return db, nil
	}
	if err := db.recover(); err != nil {
		return nil, err
	}
	return db, nil
}

// shardOf hashes a key to its index shard (FNV-1a).
func (db *DB) shardOf(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &db.shards[h%uint32(len(db.shards))]
}

// Get returns the value stored under key. The value is shared, not
// copied: treat it as immutable (see the package comment).
func (db *DB) Get(key string) (any, bool) {
	sh := db.shardOf(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// View runs fn with the value under key while holding the shard's read
// lock, so fn observes a state no concurrent Commit has partially
// applied to that key — the hook the store uses to pin an object version
// atomically with its lookup. fn must be fast and must not call back
// into the DB.
func (db *DB) View(key string, fn func(v any, ok bool)) {
	sh := db.shardOf(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	fn(v, ok)
	sh.mu.RUnlock()
}

// Len counts keys with the given prefix ("" counts everything).
func (db *DB) Len(prefix string) int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		if prefix == "" {
			n += len(sh.m)
		} else {
			for k := range sh.m {
				if hasPrefix(k, prefix) {
					n++
				}
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Entry is one key/value pair yielded by an Iterator.
type Entry struct {
	Key string
	Val any
}

// Iterator is a prefix scan over the DB, shard by shard. Each shard's
// matching entries are captured atomically under its read lock when the
// scan reaches it, so every key present for the whole scan is yielded
// exactly once and peak extra memory is one shard's entries, not the
// whole table — the property that lets a scrub walk billions of entries
// the full-map copy never could. Keys are sorted within a shard but not
// across shards. Values are shared (immutable by the package contract).
// Not safe for concurrent use by multiple goroutines.
type Iterator struct {
	db     *DB
	prefix string
	shard  int
	cur    []Entry
	i      int
}

// Scan starts a prefix scan ("" scans everything).
func (db *DB) Scan(prefix string) *Iterator {
	db.m.scans.Add(1)
	return &Iterator{db: db, prefix: prefix}
}

// Next returns the next entry, ok=false at the end.
func (it *Iterator) Next() (key string, val any, ok bool) {
	for it.i >= len(it.cur) {
		if it.shard >= len(it.db.shards) {
			return "", nil, false
		}
		it.cur = it.db.snapshotShard(it.shard, it.prefix)
		it.i = 0
		it.shard++
	}
	e := it.cur[it.i]
	it.i++
	return e.Key, e.Val, true
}

// snapshotShard captures one shard's matching entries under its read
// lock, sorted by key.
func (db *DB) snapshotShard(i int, prefix string) []Entry {
	sh := &db.shards[i]
	sh.mu.RLock()
	out := make([]Entry, 0, len(sh.m))
	for k, v := range sh.m {
		if hasPrefix(k, prefix) {
			out = append(out, Entry{Key: k, Val: v})
		}
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// txOp is one staged operation of a Tx.
type txOp struct {
	del bool
	key string
	val any
	enc []byte
}

// Tx stages one atomic batch of puts and deletes. It is valid only
// inside the Commit callback that created it.
type Tx struct {
	db  *DB
	ops []txOp
	err error
}

// Get reads the committed state (staged ops of this Tx are not visible).
// Writers are serialized, so the value cannot change before this Tx
// applies.
func (tx *Tx) Get(key string) (any, bool) { return tx.db.Get(key) }

// Put stages key→v. v must already be in its final, never-again-mutated
// form (copy-on-write: stage a replacement, don't edit the stored one).
func (tx *Tx) Put(key string, v any) {
	if tx.err != nil {
		return
	}
	enc, err := tx.db.opts.Codec.Encode(key, v)
	if err != nil {
		tx.err = fmt.Errorf("meta: encode %q: %w", key, err)
		return
	}
	tx.ops = append(tx.ops, txOp{key: key, val: v, enc: enc})
}

// Delete stages the removal of key, returning the value it currently
// holds (committed state).
func (tx *Tx) Delete(key string) (prev any, ok bool) {
	prev, ok = tx.db.Get(key)
	if tx.err == nil {
		tx.ops = append(tx.ops, txOp{del: true, key: key})
	}
	return prev, ok
}

// Commit runs fn to stage a batch, applies it to the index, appends it
// to the WAL as one record and returns once that record is durable
// (group-committed: concurrent commits share one fsync). An error from
// staging applies nothing; an error from the WAL is sticky — the log
// can no longer be trusted to match memory, so every later commit fails
// too (callers should treat the plane as down and restart).
//
// fn runs under the commit lock: stage and return, no IO, no calls back
// into Commit.
func (db *DB) Commit(fn func(tx *Tx)) error {
	return db.commit(fn, true)
}

// CommitNoSync is Commit without the durability wait: the record is
// ordered into the WAL buffer but the fsync is left to the next syncing
// commit, checkpoint or close. A crash can lose it — only for records
// that are advisory and rediscoverable (the store's repair queue: a
// lost entry is re-found by the next scrub).
func (db *DB) CommitNoSync(fn func(tx *Tx)) error {
	return db.commit(fn, false)
}

func (db *DB) commit(fn func(tx *Tx), sync bool) error {
	tx := &Tx{db: db}
	db.commitMu.Lock()
	if db.closed {
		db.commitMu.Unlock()
		return fmt.Errorf("%w: commit", ErrClosed)
	}
	fn(tx)
	if tx.err != nil {
		db.commitMu.Unlock()
		return tx.err
	}
	if len(tx.ops) == 0 {
		db.commitMu.Unlock()
		return nil
	}
	for i := range tx.ops {
		op := &tx.ops[i]
		sh := db.shardOf(op.key)
		sh.mu.Lock()
		if op.del {
			delete(sh.m, op.key)
		} else {
			sh.m[op.key] = op.val
		}
		sh.mu.Unlock()
	}
	var g *flushGroup
	needCp := false
	if db.wal != nil {
		rec := encodeRecord(tx.ops)
		g = db.wal.enqueue(rec)
		db.m.walBytes.Add(int64(len(rec)))
		db.m.commitRecords.Add(1)
		db.records++
		needCp = db.records >= checkpointEvery
	}
	db.commitMu.Unlock()
	if g != nil && sync {
		if err := db.wal.wait(g); err != nil {
			return err
		}
	}
	if needCp {
		// Best-effort: a failed checkpoint leaves a longer WAL, not a
		// broken plane (the committed record above is already durable).
		_ = db.Checkpoint()
	}
	return nil
}

// Put commits a single key→v write.
func (db *DB) Put(key string, v any) error {
	return db.Commit(func(tx *Tx) { tx.Put(key, v) })
}

// Delete commits a single removal, returning the value it removed.
func (db *DB) Delete(key string) (prev any, err error) {
	err = db.Commit(func(tx *Tx) { prev, _ = tx.Delete(key) })
	return prev, err
}

// Close checkpoints (so the next Open replays nothing) and releases the
// WAL. Idempotent; a memory-only plane just marks itself closed.
func (db *DB) Close() error {
	err := db.Checkpoint()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.wal != nil {
		if cerr := db.wal.close(); err == nil {
			err = cerr
		}
	}
	return err
}
