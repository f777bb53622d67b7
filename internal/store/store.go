package store

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/meta"
)

// Config sizes a Store. Zero fields take defaults.
type Config struct {
	// Codec is the stripe code; default NewXorbasCodec() (LRC(10,6,5)).
	// Reopening a plane with Codec nil works for the two built-in codecs
	// (the record holds only the name).
	Codec Codec
	// Backend holds the block bytes; default NewMemBackend().
	Backend Backend
	// Nodes is the number of seed DataNodes (default 20); nodes joined
	// later live in the membership table, not here.
	Nodes int
	// Racks spreads nodes round-robin, rack = node mod Racks (default 8 —
	// enough racks for the strict one-block-per-rack-per-group rule of the
	// Xorbas 6-member groups).
	Racks int
	// BlockSize is the maximum data-block payload per stripe position in
	// bytes (default 64 KiB; 256 MB in the paper's clusters).
	BlockSize int
	// RepairRateBytes caps the backend read rate of every background
	// block move in bytes per second: repairs, drain copies and joiner
	// fills — the paper's bounded fixer load, so neither a dead node's
	// repair nor a planned topology change starves foreground reads.
	// Charged by actual bytes read through one shared token bucket;
	// 0 = unlimited.
	RepairRateBytes int64
	// ScrubRateBytes caps the scrubber's integrity-walk read rate in
	// bytes per second, same discipline; 0 = unlimited.
	ScrubRateBytes int64
	// CacheBytes bounds the in-memory hot-block cache on the foreground
	// read path: fetched (and reconstructed) data-block payloads stay
	// resident in a sharded LRU keyed by backend block key — which
	// embeds (name, gen, stripe, pos), so generations can never collide
	// — and a repeat read of a hot object costs zero backend reads.
	// Scrub, repair and rebalance reads never populate it.
	// 0 disables caching (the default; background tools and tests then
	// see every read hit the backend).
	CacheBytes int64
	// MetaDir roots the persistent metadata plane (WAL + checkpoint): an
	// acked Put is then on the log before PutReader returns, and a
	// restart recovers every manifest by checkpoint load + WAL replay.
	// "" keeps metadata in memory only (tests, throwaway stores). The
	// plane also records the geometry it was created with (Codec by
	// name, Nodes, Racks, BlockSize): reopening it, those fields may be
	// left zero to take the recorded values, and a non-zero one that
	// disagrees fails New with ErrGeometryMismatch.
	MetaDir string
}

func (c *Config) fillDefaults() {
	if c.Codec == nil {
		c.Codec = NewXorbasCodec()
	}
	if c.Backend == nil {
		c.Backend = NewMemBackend()
	}
	if c.Nodes == 0 {
		c.Nodes = 20
	}
	if c.Racks == 0 {
		c.Racks = 8
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64 << 10
	}
}

// validate rejects what no plane could make valid. It runs before the
// plane is opened, so a refused Config leaves nothing on disk; zero
// geometry fields pass, reconcileGeometry fills them.
func (c *Config) validate() error {
	if c.Nodes < 0 {
		return fmt.Errorf("store: need at least 1 node, got %d", c.Nodes)
	}
	if c.Racks < 0 {
		return fmt.Errorf("store: need at least 1 rack, got %d", c.Racks)
	}
	if c.BlockSize < 0 {
		return fmt.Errorf("store: block size must be positive, got %d", c.BlockSize)
	}
	return nil
}

// stripeInfo is the manifest entry for one stripe of an object.
type stripeInfo struct {
	// Seq is the placement rotation the stripe was placed with.
	Seq int `json:"seq"`
	// DataLen is the real payload length of the stripe before zero
	// padding to K·BlockLen.
	DataLen int `json:"data_len"`
	// BlockLen is the per-block payload length.
	BlockLen int `json:"block_len"`
	// Nodes[pos] is the node holding stripe position pos.
	Nodes []int `json:"nodes"`
	// Keys[pos] is the backend key of stripe position pos.
	Keys []string `json:"keys"`
}

// objectInfo is an object's manifest.
type objectInfo struct {
	Name string `json:"name"`
	Size int    `json:"size"`
	// Gen is the Put generation that wrote this version: repairs racing
	// an overwrite use it to tell the versions apart (a stale repair must
	// never splice an old block key into the new manifest).
	Gen     int64        `json:"gen"`
	Stripes []stripeInfo `json:"stripes"`
}

// Store is a concurrent erasure-coded object store. All methods are safe
// for concurrent use.
type Store struct {
	cfg    Config
	placer *placer
	// slabs pools the stripe slabs (*slab) PutReader reads, encodes and
	// writes from. Every slab has the one size geometry × BlockSize fixes;
	// an idle store's slabs go back to the garbage collector.
	slabs sync.Pool
	// frames pools the block-sized frames (*[]byte, 4+BlockSize) lent to
	// an IntoReader backend for a decode's sources, a joiner fill and the
	// blocks a GET wants but the cache declines, and that hold a declined
	// block a degraded GET rebuilds. Block-granular on purpose: a light
	// repair wants five frames, not a sixteen-frame slab. framesOut counts
	// the frames drawn (getFrame) and not yet returned (putFrame).
	frames    sync.Pool
	framesOut atomic.Int64

	// db is the metadata plane: every manifest, the repair queue and the
	// membership records live there, sharded for concurrent access and —
	// with Config.MetaDir — write-ahead logged. Values follow the meta
	// package's copy-on-write contract: an *objectInfo handed out by the
	// plane is immutable, and mutation commits a replacement.
	db *meta.DB

	// mu guards the membership table: one record per node id ever
	// issued, its liveness included (manifests no longer live under it).
	mu      sync.RWMutex
	members []memberRecord

	// memberMu serializes every n/ record write (AddNode, state
	// transitions, liveness flips) so a backend registration and the
	// table growth it pairs with are atomic, and records commit in the
	// order their changes were made — without holding mu across the
	// backend call or the commit.
	memberMu sync.Mutex
	// epoch counts membership changes; persisted in every n/ record.
	epoch atomic.Int64

	// Read pinning: a streaming read pins the manifest it snapshotted,
	// and reclamation holds back every pending entry a pinned manifest
	// names — a copy retired by an overwrite or delete, or relocated by a
	// repair or rebalance — so no block the read's snapshot names is
	// deleted mid-stream. A reader of a later manifest, which names the
	// relocated copy instead, holds nothing back. A held copy goes with
	// the first batch or Reclaim after its last reader leaves.
	pinMu sync.Mutex
	pins  map[*objectInfo]int

	// Reclamation (reclaim.go): the pending list, the block keys queued
	// since a batch last took it, and the gauge of keys still waiting.
	reclaimMu     sync.Mutex
	pending       []*retired
	fresh         int
	pendingBlocks atomic.Int64

	gen atomic.Int64 // issues Put and relocation generations, keeps block keys unique
	seq atomic.Int64 // stripe placement rotation

	// repairLim paces every background block move, scrubLim the
	// integrity walk (nil = unlimited). Foreground reads never touch them.
	repairLim *Limiter
	scrubLim  *Limiter

	// cache is the hot-block read cache, nil unless Config.CacheBytes
	// is set. A copy's entry is dropped where the copy itself ends: in
	// reclaim, with its delete.
	cache *blockCache

	m counters
}

// New builds a Store over cfg.MetaDir's metadata plane, creating the
// plane (and recording cfg's geometry in it) when it is empty and
// recovering manifests, membership, liveness and the gen/seq watermark
// from it otherwise — the plane is the store's only durable state.
func New(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	db, err := meta.Open(meta.Options{
		Dir:   cfg.MetaDir,
		Codec: metaCodec{},
	})
	if err != nil {
		return nil, err
	}
	s, err := open(cfg, db)
	if err != nil {
		_ = db.Close() // release the WAL; the open error is the one to report
		return nil, err
	}
	return s, nil
}

func open(cfg Config, db *meta.DB) (*Store, error) {
	if err := reconcileGeometry(&cfg, db); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:       cfg,
		db:        db,
		placer:    newPlacer(cfg.Codec, cfg.Racks),
		pins:      make(map[*objectInfo]int),
		repairLim: NewLimiter(cfg.RepairRateBytes),
		scrubLim:  NewLimiter(cfg.ScrubRateBytes),
	}
	if cfg.CacheBytes > 0 {
		s.cache = newBlockCache(cfg.CacheBytes)
	}
	// Seed nodes start active at epoch 0; their records are persisted
	// lazily, on the first membership or liveness change that touches
	// them.
	s.members = make([]memberRecord, cfg.Nodes)
	for i := range s.members {
		s.members[i] = memberRecord{Node: i, State: NodeActive}
	}
	if err := s.recoverMeta(); err != nil {
		return nil, err
	}
	return s, nil
}

// Codec returns the store's codec.
func (s *Store) Codec() Codec { return s.cfg.Codec }

// Backend returns the store's backend.
func (s *Store) Backend() Backend { return s.cfg.Backend }

// Nodes returns the node count, including every id ever issued —
// joining, draining and dead nodes keep their slots (ids are never
// reused, so old manifests always resolve).
func (s *Store) Nodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.members)
}

// Racks returns the rack count.
func (s *Store) Racks() int { return s.cfg.Racks }

// Alive reports whether a node is up.
func (s *Store) Alive(n int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return n >= 0 && n < len(s.members) && !s.members[n].Down
}

// KillNode takes a node down: its blocks become unreadable until revival
// or repair (the paper's DataNode terminations, §5.2). Idempotent. The
// death is logged in the node's membership record (best-effort) so a
// restart still knows the node is down without a presence walk.
func (s *Store) KillNode(n int) { s.setDown(n, true) }

// ReviveNode brings a node back (§1.1's transient failures). Idempotent.
// A retired (NodeDead) member stays down: it is out of the topology.
func (s *Store) ReviveNode(n int) { s.setDown(n, false) }

// setDown flips node n's liveness and commits its n/ record; a flip
// that changes nothing, or would revive a retired member, commits
// nothing, and none bumps the epoch.
// memberMu orders the commits as it orders the flips, so a record on
// disk is never older than a later flip. s.mu is released before the
// fsynced commit: Alive is on every read's path. A lost commit only
// costs a post-crash scrub the liveness hint.
func (s *Store) setDown(n int, down bool) {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	s.mu.Lock()
	if n < 0 || n >= len(s.members) || s.members[n].Down == down || s.members[n].State == NodeDead {
		s.mu.Unlock()
		return
	}
	s.members[n].Down = down
	rec := s.members[n]
	s.mu.Unlock()
	_ = s.db.Put(nodeKey(n), &rec)
}

// keyNameLen caps the object-name part of a block key. The global
// generation alone makes a key unique; the name only makes it readable.
// Capped, the longest key (every number at its int64 width) plus
// DirBackend's temp-file prefix and suffix fits a 255-byte file name.
const keyNameLen = 128

// blockKey builds a unique, filesystem-safe backend key.
func blockKey(name string, gen int64, stripe, pos int) string {
	name = name[:min(len(name), keyNameLen)]
	safe := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return fmt.Sprintf("%s.g%06d.s%05d.b%02d", safe, gen, stripe, pos)
}

// keyGen reads back the generation blockKey wrote into key, 0 when key
// does not parse. The name part may itself hold ".g" or ".s", but the
// suffix blockKey appends holds each once.
func keyGen(key string) int64 {
	i := strings.LastIndex(key, ".g")
	j := strings.LastIndex(key, ".s")
	if i < 0 || j < i {
		return 0
	}
	gen, err := strconv.ParseInt(key[i+2:j], 10, 64)
	if err != nil {
		return 0
	}
	return gen
}

const (
	// parallelThreshold is the stripe payload size at which encoding
	// goes parallel.
	parallelThreshold = 1 << 20
	// ioWorkers bounds the pool that writes one stripe's framed blocks
	// during a put, and the pool that fetches one stripe's data blocks —
	// or a repair's planned sources — during a get. Disk and network
	// backends overlap latency; a memory backend mostly overlaps lock
	// hold times.
	ioWorkers = 4
)

// encodeWorkers picks the parity parallelism for a stripe payload size.
func encodeWorkers(stripeBytes int) int {
	if stripeBytes >= parallelThreshold {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// poolSize is the backend I/O pool size for a stripe operation of the
// given number of block jobs.
func poolSize(jobs int) int {
	if jobs < ioWorkers {
		return jobs
	}
	return ioWorkers
}

// fanOut runs job(i) for every i in [0, n) on poolSize(n) goroutines and
// returns once all of them have finished, so whatever the jobs read into
// or wrote from is the caller's again. A single job runs inline. Jobs
// report through their own slot of a caller-owned slice (errs[i],
// accts[i]): no two share one, so nothing is locked.
func fanOut(n int, job func(i int)) {
	workers := poolSize(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Put stores an object under name, replacing any previous version. The
// object is chunked into K·BlockSize stripes, encoded (in parallel for
// large stripes), CRC-framed and placed rack-aware on live nodes. It is
// a thin wrapper over the streaming path (PutReader).
func (s *Store) Put(name string, data []byte) error {
	return s.PutReader(name, bytes.NewReader(data))
}

// readBlockPayload fetches and unframes one stripe position. Reads from
// dead nodes fail without touching the backend; short, corrupt or missing
// blocks fail after the read (and still count toward bytes read — the
// scrubber pays for what it reads, good or bad). lim, when non-nil, is
// charged the actual bytes read: the background datapaths pass their
// token bucket, foreground reads pass nil.
//
// dst, when non-nil, is a frame lent for the read (reconstructPositions,
// or a GET's fetchPositions for a block the cache declined):
// a backend that implements IntoReader may deliver the block in it, and
// the payload returned then aliases dst. A backend without ReadInto, or a
// block that does not fit, is read as ever — it is always the returned
// slice that is unframed, never dst. The accounting below sees the same
// bytes on either path. A failed read may leave garbage in dst, which is
// harmless: only a CRC-clean frame is ever decoded.
func (s *Store) readBlockPayload(si *stripeInfo, pos int, acct *readAcct, lim *Limiter, dst []byte) ([]byte, error) {
	node := si.Nodes[pos]
	if !s.Alive(node) {
		return nil, fmt.Errorf("store: node %d is dead", node)
	}
	raw, err := readInto(s.cfg.Backend, node, si.Keys[pos], dst)
	if err != nil {
		return nil, err
	}
	acct.blocks++
	acct.bytes += int64(len(raw))
	lim.Take(int64(len(raw)))
	payload, err := UnframeBlock(raw)
	if err != nil {
		return nil, err
	}
	if len(payload) != si.BlockLen {
		return nil, fmt.Errorf("%w: %d-byte payload, want %d", ErrCorrupt, len(payload), si.BlockLen)
	}
	return payload, nil
}

// lightRepairable reports whether every damaged position has a light
// repair plan given avail — the repair queue's priority bit (at equal
// risk, light repairs go first), defined here once for the full scrub and
// the presence walk.
func (s *Store) lightRepairable(damaged []int, avail []bool) bool {
	for _, pos := range damaged {
		if _, light, err := s.cfg.Codec.PlanReads(pos, avail); err != nil || !light {
			return false
		}
	}
	return true
}

// reconstructPositions rebuilds every nil position in need with one
// batched decode: the union of the codec's repair plans (light local
// sets first, heavy fallback) is fetched concurrently through the
// bounded read pool, then a single ReconstructManyInto pass rebuilds all
// targets through the field package's XOR and table kernels. stripe
// holds payloads already in hand and is filled in place; avail marks
// positions believed readable and is downgraded as fetches fail,
// re-planning until every target is rebuilt or provably unrecoverable.
// On an unrecoverable stripe the targets that can be rebuilt still are
// (partial progress) and the first failure is returned. dstFor supplies
// the decode buffer for each target position: the repair engine's
// reusable framed slabs, or a fresh block for a degraded GET.
//
// The sources fetched here live for one decode, so over a backend that
// can receive into a caller's buffer (IntoReader) they are borrowed, not
// allocated: each lands in a frame from s.frames, and on return — every
// return — each frame is back in the pool and its stripe entry is nil
// again. What the caller finds in stripe afterwards is what it put there
// plus the rebuilt targets, which are dstFor's buffers and never alias a
// frame (ReconstructManyInto copies or computes into dst); no source
// frame can reach the cache, a writer or a write-back. A GET fetches its
// own blocks itself (fetchPositions), and lends frames for the ones the
// cache declines under rules of its own.
func (s *Store) reconstructPositions(si *stripeInfo, stripe [][]byte, need []int, avail []bool, acct *readAcct, lim *Limiter, dstFor func(pos int) []byte) error {
	var firstErr error
	n := len(stripe)
	var frames []*[]byte // by stripe position; nil: the backend takes no buffer
	if _, ok := s.cfg.Backend.(IntoReader); ok {
		frames = make([]*[]byte, n)
		// A frame goes back only after every read into it has been joined:
		// fetchBlocks returns with its workers finished, and nothing else
		// reads into a frame.
		defer func() {
			for j, f := range frames {
				if f != nil {
					stripe[j] = nil
					s.putFrame(f)
				}
			}
		}()
	}
	wanted := make([]int, 0, n)
	seen := make([]bool, n)
	for {
		// Plan every target still nil; collect the union of source reads.
		var targets []int
		wanted = wanted[:0]
		for i := range seen {
			seen[i] = false
		}
		for _, pos := range need {
			if stripe[pos] != nil {
				continue
			}
			reads, _, err := s.cfg.Codec.PlanReads(pos, avail)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: block %d: %v", ErrUnrecoverable, pos, err)
				}
				continue
			}
			targets = append(targets, pos)
			for _, j := range reads {
				if stripe[j] == nil && !seen[j] {
					seen[j] = true
					wanted = append(wanted, j)
				}
			}
		}
		if len(targets) == 0 {
			return firstErr
		}
		if frames != nil {
			for _, j := range wanted {
				if frames[j] == nil {
					frames[j] = s.getFrame()
				}
			}
		}
		if s.fetchBlocks(si, stripe, wanted, avail, acct, lim, frames) {
			continue // a source failed; re-plan with the downgraded avail
		}
		payloads := make([][]byte, len(targets))
		for ti, pos := range targets {
			payloads[ti] = dstFor(pos)
		}
		filled, lights, err := s.cfg.Codec.ReconstructManyInto(stripe, targets, payloads)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%w: %v", ErrUnrecoverable, err)
		}
		for ti, ok := range filled {
			if !ok {
				continue
			}
			pos := targets[ti]
			stripe[pos] = payloads[ti]
			avail[pos] = true
			if lights[ti] {
				acct.light++
			} else {
				acct.heavy++
			}
		}
		// Every planned source was in hand, so a target
		// ReconstructManyInto left unfilled is genuinely unrecoverable —
		// re-looping could not fetch anything new.
		return firstErr
	}
}

// getFrame draws a block frame from the store's pool, allocating on a
// miss. A pooled frame holds an earlier block's bytes; a read overwrites
// the part it returns.
func (s *Store) getFrame() *[]byte {
	s.framesOut.Add(1)
	if f, ok := s.frames.Get().(*[]byte); ok {
		return f
	}
	f := make([]byte, 4+s.cfg.BlockSize)
	return &f
}

// putFrame returns a frame to the pool. Its caller holds no slice of it
// any more, and no read into it is in flight.
func (s *Store) putFrame(f *[]byte) {
	s.framesOut.Add(-1)
	s.frames.Put(f)
}

// fetchBlocks reads the given stripe positions into stripe —
// concurrently when the read pool allows — charging lim and downgrading
// avail on failure. Reports whether any fetch failed (the caller then
// re-plans). A non-nil frames[j] lends position j's read the buffer
// *frames[j] (see readBlockPayload); every read has finished by return.
func (s *Store) fetchBlocks(si *stripeInfo, stripe [][]byte, positions []int, avail []bool, acct *readAcct, lim *Limiter, frames []*[]byte) bool {
	if len(positions) == 0 {
		return false
	}
	accts := make([]readAcct, len(positions))
	errs := make([]error, len(positions))
	fanOut(len(positions), func(idx int) {
		j := positions[idx]
		var dst []byte
		if frames != nil && frames[j] != nil {
			dst = *frames[j]
		}
		p, err := s.readBlockPayload(si, j, &accts[idx], lim, dst)
		if err != nil {
			errs[idx] = err
			return
		}
		stripe[j] = p
	})
	failed := false
	for idx, err := range errs {
		acct.add(&accts[idx])
		if err != nil {
			avail[positions[idx]] = false
			failed = true
		}
	}
	return failed
}

// verKey names one version of one object: the version a pending
// entry's blocks belong to.
type verKey struct {
	name string
	gen  int64
}

// pin marks one more in-flight reader of manifest m. Callers must pin
// inside the db.View that looked m up, so the pin is atomic with the
// lookup against a concurrent commit (which takes the same shard's write
// lock).
func (s *Store) pin(m *objectInfo) {
	s.pinMu.Lock()
	s.pins[m]++
	s.pinMu.Unlock()
}

// unpin releases one reader of manifest m. It does no I/O: a copy the
// pin held back goes with the next batch or Reclaim.
func (s *Store) unpin(m *objectInfo) {
	s.pinMu.Lock()
	if s.pins[m]--; s.pins[m] <= 0 {
		delete(s.pins, m)
	}
	s.pinMu.Unlock()
}

// names reports whether manifest o names one of blocks (keys are never
// reused, so the key alone tells).
func (o *objectInfo) names(blocks []blockRef) bool {
	for i := range o.Stripes {
		for _, key := range o.Stripes[i].Keys {
			for _, b := range blocks {
				if key == b.key {
					return true
				}
			}
		}
	}
	return false
}

// Delete removes an object. The manifest goes and the version's
// tombstone comes in one durable commit, and the blocks are reclaimed
// later in a batch (reclaim.go), so a crash at any point leaves either
// the object or a tombstone that names its blocks — never a manifest
// pointing at deleted bytes, and never blocks nothing names.
func (s *Store) Delete(name string) error {
	var obj *objectInfo
	err := s.db.Commit(func(tx *meta.Tx) {
		v, ok := tx.Get(objKey(name))
		if !ok {
			return
		}
		obj = v.(*objectInfo)
		tx.Delete(objKey(name))
		tx.Put(tombKey(obj), obj)
	})
	if err != nil {
		return err
	}
	if obj == nil {
		return fmt.Errorf("%w: %q", ErrObjectNotFound, name)
	}
	s.retire(retiredOf(obj))
	return nil
}

// ObjectStat summarizes one stored object.
type ObjectStat struct {
	Name    string
	Size    int
	Stripes int
}

// Objects lists stored objects via a metadata-plane scan.
func (s *Store) Objects() []ObjectStat {
	return s.ObjectsWithPrefix("")
}

// ObjectsWithPrefix lists stored objects whose names start with prefix —
// the gateway's tenant-scoped listing ("" lists everything). Order is
// unspecified (the plane's scan is sharded); callers that need sorted
// output sort the result.
func (s *Store) ObjectsWithPrefix(prefix string) []ObjectStat {
	var out []ObjectStat
	it := s.db.Scan(objPrefix + prefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		o := v.(*objectInfo)
		out = append(out, ObjectStat{Name: o.Name, Size: o.Size, Stripes: len(o.Stripes)})
	}
	return out
}

// Stat returns one object's summary, or an error wrapping ErrNotFound.
func (s *Store) Stat(name string) (ObjectStat, error) {
	v, ok := s.db.Get(objKey(name))
	if !ok {
		return ObjectStat{}, fmt.Errorf("%w: %q", ErrObjectNotFound, name)
	}
	o := v.(*objectInfo)
	return ObjectStat{Name: o.Name, Size: o.Size, Stripes: len(o.Stripes)}, nil
}

// BlocksPerNode counts manifest blocks per node — the placement balance
// view.
func (s *Store) BlocksPerNode() []int {
	out := make([]int, s.Nodes())
	s.eachStripe(func(o *objectInfo, i int) bool {
		for _, n := range o.Stripes[i].Nodes {
			if n >= 0 && n < len(out) {
				out[n]++
			}
		}
		return true
	})
	return out
}

// eachStripe calls fn with every stripe of every stored object, streamed
// through the metadata plane's prefix iterator — one shard's manifests in
// memory at a time, never a global snapshot — until fn returns false.
// The manifests are immutable (copy-on-write plane): fn may inspect one
// in place, but it is a point-in-time view.
func (s *Store) eachStripe(fn func(obj *objectInfo, idx int) bool) {
	it := s.db.Scan(objPrefix)
	for {
		_, v, ok := it.Next()
		if !ok {
			return
		}
		obj := v.(*objectInfo)
		for idx := range obj.Stripes {
			if !fn(obj, idx) {
				return
			}
		}
	}
}

// BlockLocation returns where one stripe position of an object lives —
// the hook the corruption tooling uses.
func (s *Store) BlockLocation(name string, stripe, pos int) (node int, key string, err error) {
	v, ok := s.db.Get(objKey(name))
	if !ok {
		return 0, "", fmt.Errorf("%w: %q", ErrObjectNotFound, name)
	}
	obj := v.(*objectInfo)
	if stripe < 0 || stripe >= len(obj.Stripes) {
		return 0, "", fmt.Errorf("store: %q has no stripe %d", name, stripe)
	}
	si := &obj.Stripes[stripe]
	if pos < 0 || pos >= len(si.Nodes) {
		return 0, "", fmt.Errorf("store: stripe has no block %d", pos)
	}
	return si.Nodes[pos], si.Keys[pos], nil
}

// stripeRef names one stripe for the scrubber's walk. The generation
// pins the object *version*: a repair started against version g must
// never touch the manifest of a later overwrite.
type stripeRef struct {
	name string
	gen  int64
	idx  int
}

// objectForRef resolves a ref to the live manifest, nil if the object
// was deleted or overwritten since the ref was taken.
func (s *Store) objectForRef(ref stripeRef) *objectInfo {
	v, ok := s.db.Get(objKey(ref.name))
	if !ok {
		return nil
	}
	obj := v.(*objectInfo)
	if obj.Gen != ref.gen || ref.idx >= len(obj.Stripes) {
		return nil
	}
	return obj
}

// stripeSnapshot copies one stripe's manifest entry. The Nodes/Keys
// copies matter: repair mutates its local snapshot while planning, and
// the plane's manifest is shared with every other reader.
func (s *Store) stripeSnapshot(ref stripeRef) (stripeInfo, bool) {
	obj := s.objectForRef(ref)
	if obj == nil {
		return stripeInfo{}, false
	}
	si := obj.Stripes[ref.idx]
	si.Nodes = append([]int(nil), si.Nodes...)
	si.Keys = append([]string(nil), si.Keys...)
	return si, true
}

// withRelocation returns a copy of the manifest with one stripe position
// moved to another node under a new key — the copy-on-write half of
// relocate. Only the touched stripe's node and key slices are duplicated;
// the rest alias the old version, which is immutable by the same
// contract.
func (o *objectInfo) withRelocation(idx, pos, node int, key string) *objectInfo {
	n := *o
	n.Stripes = append([]stripeInfo(nil), o.Stripes...)
	si := &n.Stripes[idx]
	si.Nodes = append([]int(nil), si.Nodes...)
	si.Keys = append([]string(nil), si.Keys...)
	si.Nodes[pos], si.Keys[pos] = node, key
	return &n
}

// relocate writes frame, stripe position pos of ref, to node under a key
// of its own and splices both into the manifest, copy-on-write, with the
// relocation record of the copy that leaves: the one the manifest held,
// or the one just written when the object was deleted or overwritten
// meanwhile (splicing an old version's block into a new manifest would
// serve stale bytes). Every copy gets a fresh generation, so a pending
// delete only ever names a copy that nothing reads — a rewrite on the
// same node included. A write that reports failure may still have landed
// (a rename before a failed directory sync, a reply lost after the node
// stored the block), and its key is never issued again, so its copy gets
// the same record and pending delete. The copy that leaves joins the
// pending list as a retired version's blocks do (see reclaim.go).
func (s *Store) relocate(ref stripeRef, pos, node int, frame []byte) bool {
	key := blockKey(ref.name, s.gen.Add(1), ref.idx, pos)
	written := s.cfg.Backend.Write(node, key, frame) == nil
	gone := blockRef{node, key}
	spliced := false
	err := s.db.Commit(func(tx *meta.Tx) {
		v, _ := tx.Get(objKey(ref.name))
		if obj, ok := v.(*objectInfo); written && ok && obj.Gen == ref.gen && ref.idx < len(obj.Stripes) {
			si := &obj.Stripes[ref.idx]
			gone, spliced = blockRef{si.Nodes[pos], si.Keys[pos]}, true
			tx.Put(objKey(ref.name), obj.withRelocation(ref.idx, pos, node, key))
		}
		tx.Put(relocKey(gone), nil)
	})
	if err != nil {
		return false // the plane is down for good (meta's WAL errors are sticky)
	}
	r := &retired{rec: relocKey(gone), left: []blockRef{gone}}
	if spliced {
		r.ver = verKey{ref.name, ref.gen}
	}
	s.retire(r)
	return spliced
}
