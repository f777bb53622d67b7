package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/meta"
)

// The streaming datapath: PutReader and GetWriter move objects through
// the store one stripe at a time, so peak memory is O(stripe size ×
// pipeline depth) no matter how large the object is — the paper's
// multi-GB HDFS blocks fit through a laptop-sized heap. Both directions
// are pipelined: PutReader reads stripe N+1 from the source while stripe
// N encodes, and writes a stripe's framed blocks to the backend through a
// bounded worker pool; GetWriter fetches a stripe's data blocks
// concurrently and prefetches the next stripe while the current one
// drains to the writer. The object manifest is committed atomically only
// once the reader is exhausted, so a half-streamed object is never
// visible and a mid-stream failure rolls every written block back. Put
// and Get are thin wrappers over these.

// slab is one stripe's framed block buffers at the store's geometry:
// NStored frames of 4+BlockSize bytes in one allocation. full[i] is
// block i's backend frame, payload at full[i][4:]. A store keeps its
// slabs in one pool (Store.slabs) and every stripe of every PUT is
// read, encoded and written from one of them; nothing downstream keeps
// a frame, because Backend.Write must copy or persist before it returns.
type slab struct {
	mem  []byte
	full [][]byte
}

// getSlab draws a slab from the store's pool, allocating on a miss. A
// pooled slab holds an earlier stripe's bytes: the reader and the
// encoder overwrite all of a full stripe, and compact clears what a
// short one leaves over.
func (s *Store) getSlab() *slab {
	if sl, ok := s.slabs.Get().(*slab); ok {
		return sl
	}
	n, bs := s.cfg.Codec.NStored(), s.cfg.BlockSize
	mem := make([]byte, n*(4+bs))
	return &slab{mem: mem, full: carveFramedBufs(mem, n, bs)}
}

// compact re-lays a short final stripe in place: the dataLen payload
// bytes the reader left at the full-block layout move to frames of the
// shrunken block length bl = ⌈dataLen/k⌉ carved from the slab's start,
// and the padding (the tail of the last partial data block, every wholly
// empty one) is cleared so that no stale byte is ever encoded into stored
// parity. A byte's offset is its stream position plus 4 per frame header
// up to and including its own block's; shorter blocks mean more headers
// before it, so no byte moves down, and moving the runs back to front
// never overwrites one that has yet to move.
func (sl *slab) compact(k, dataLen int) (bufs [][]byte, bl int) {
	bs := len(sl.full[0]) - 4
	bl = (dataLen + k - 1) / k
	bufs = carveFramedBufs(sl.mem, len(sl.full), bl)
	for hi := dataLen; hi > 0; {
		i, j := (hi-1)/bs, (hi-1)/bl // old and new block of byte hi-1
		lo := max(i*bs, j*bl)        // [lo, hi) sits in one block of each layout
		copy(bufs[j][4+lo-j*bl:4+hi-j*bl], sl.full[i][4+lo-i*bs:4+hi-i*bs])
		hi = lo
	}
	for p := dataLen; p < k*bl; p = (p/bl + 1) * bl {
		clear(bufs[p/bl][4+p%bl:])
	}
	return bufs, bl
}

// filledStripe is one stripe read from the source into a slab at the
// full-block layout (data blocks 0..k-1 filled from the reader, parity
// blocks encoded in place later). n is the real payload byte count;
// n < k·BlockSize only for the object's final stripe.
type filledStripe struct {
	sl  *slab
	n   int
	err error // terminal source error (never io.EOF)
}

// PutReader stores an object streamed from r, replacing any previous
// version once the stream completes. The engine is double-buffered: a
// reader goroutine fills the next stripe's slab while the current stripe
// encodes, and each stripe's blocks go to the backend through a bounded
// write pool. Stripes never copy inside the store: data is read directly
// into framed buffers, parities are encoded into framed buffers, and the
// backend is handed those buffers to copy or persist. A PUT draws at most
// two slabs from the store's pool, each only when the reader first needs
// it, cycles them for the length of the object and returns them when it
// succeeds. On any error no manifest is committed, and the blocks already
// written get a tombstone and are reclaimed like a retired version's.
//
// After an error return the internal reader may still be inside one
// blocked Read of r until that read unblocks (the same contract as
// net/http request bodies): do not reuse r, and close it to release the
// reader promptly — closing an *os.File or net.Conn interrupts the read.
// That read targets a slab, so a failed PUT's slabs are left to the
// garbage collector and never pooled. On success the reader has always
// exited.
func (s *Store) PutReader(name string, r io.Reader) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	k := s.cfg.Codec.K()
	gen := s.gen.Add(1)
	obj := &objectInfo{Name: name, Gen: gen}
	// On any mid-stream failure, blocks already written would be orphaned
	// (no manifest ever references them), so roll them back: a durable
	// tombstone names them — this is the failure path, so the fsync costs
	// nothing on the acked one — and they are reclaimed like any retired
	// version.
	fail := func(err error) error {
		if len(obj.Stripes) > 0 {
			// A plane that cannot log the tombstone is down; the blocks are
			// still queued in memory, and err is the one to report.
			_ = s.db.Put(tombKey(obj), obj)
			s.retire(retiredOf(obj))
		}
		return err
	}
	// Double buffer: two tokens cycle between the reader and the writer.
	// A token is nil until the reader first takes it and draws its slab.
	free := make(chan *slab, 2)
	free <- nil
	free <- nil
	fills := make(chan filledStripe, 1)
	stop := make(chan struct{})
	// On exit, stop releases a fill goroutine parked on a channel; one
	// parked inside a blocking Read keeps r until that read unblocks
	// (see the contract in the doc comment). Joining unconditionally
	// would instead hold a backend-write error hostage to the source's
	// liveness — a stalled pipe could delay the put's failure forever.
	defer close(stop)
	go func() {
		defer close(fills)
		for {
			var sl *slab
			select {
			case sl = <-free:
			case <-stop:
				return
			}
			if sl == nil {
				sl = s.getSlab()
			}
			f := filledStripe{sl: sl}
			var rerr error
			for i := 0; i < k && rerr == nil; i++ {
				var m int
				m, rerr = io.ReadFull(r, sl.full[i][4:])
				f.n += m
			}
			if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
				f.err = rerr
			}
			select {
			case fills <- f:
			case <-stop:
				return
			}
			if rerr != nil {
				return
			}
		}
	}()
	for f := range fills {
		if f.err != nil {
			return fail(fmt.Errorf("store: read object %q: %w", name, f.err))
		}
		if f.n > 0 { // 0: bare EOF on a stripe boundary
			if err := s.putStripeFramed(obj, f.sl, f.n); err != nil {
				return fail(err)
			}
			obj.Size += f.n
		}
		free <- f.sl
	}
	// fills is closed, so the reader has exited, and every stripe's writes
	// were joined: nothing can touch the slabs again. Both tokens are back
	// in free, and nobody is left to send on it.
	close(free)
	for sl := range free {
		if sl != nil {
			s.slabs.Put(sl)
		}
	}
	if err := s.commit(obj); err != nil {
		return fail(fmt.Errorf("store: commit object %q: %w", name, err))
	}
	return nil
}

// carveFramedBufs slices a slab (len ≥ n·(4+payloadLen)) into n framed
// block buffers: one allocation behind n blocks, which is sound because
// a stripe's blocks are always retired together.
func carveFramedBufs(slab []byte, n, payloadLen int) [][]byte {
	fl := 4 + payloadLen
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = slab[i*fl : (i+1)*fl : (i+1)*fl]
	}
	return bufs
}

// putStripeFramed encodes and writes one stripe whose dataLen payload
// bytes sit in sl at the full-block layout: a short final stripe is first
// compacted to its shrunken block length, then parities are encoded
// directly into the framed payload windows, CRC headers are stamped in
// place, and the n blocks go to the backend through the bounded write
// pool — a full stripe's payload is never copied inside the store.
func (s *Store) putStripeFramed(obj *objectInfo, sl *slab, dataLen int) error {
	k := s.cfg.Codec.K()
	bufs, bl := sl.full, s.cfg.BlockSize
	if dataLen < k*bl {
		bufs, bl = sl.compact(k, dataLen)
	}
	payloads := make([][]byte, len(bufs))
	for i, b := range bufs {
		payloads[i] = b[4:]
	}
	if err := s.cfg.Codec.EncodeInto(payloads[:k], payloads[k:], encodeWorkers(dataLen)); err != nil {
		return err
	}
	return s.sealStripe(obj, bufs, dataLen, bl)
}

// sealStripe places an encoded framed stripe, appends its manifest entry
// to obj and writes its blocks. The manifest entry goes in first, writes
// second: a failed write then rolls back this stripe's earlier blocks too
// (Delete of a never-written key is a no-op).
func (s *Store) sealStripe(obj *objectInfo, bufs [][]byte, dataLen, blockLen int) error {
	n := len(bufs)
	seq := int(s.seq.Add(1))
	// Place on the membership-aware set: alive AND active/joining. New
	// stripes land on the post-change topology immediately; draining
	// nodes only serve reads for what they already hold.
	nodes := s.placer.place(seq, s.Members())
	idx := len(obj.Stripes)
	si := stripeInfo{
		Seq:      seq,
		DataLen:  dataLen,
		BlockLen: blockLen,
		Nodes:    nodes,
		Keys:     make([]string, n),
	}
	for pos := 0; pos < n; pos++ {
		si.Keys[pos] = blockKey(obj.Name, obj.Gen, idx, pos)
	}
	obj.Stripes = append(obj.Stripes, si)
	for pos := 0; pos < n; pos++ {
		if nodes[pos] < 0 {
			return fmt.Errorf("store: no live node for stripe %d block %d", idx, pos)
		}
	}
	return s.writeStripeBlocks(&si, bufs, idx)
}

// writeStripeBlocks stamps each framed buffer's CRC header and writes the
// stripe's blocks through a bounded worker pool. All writes are joined
// before returning, so a caller that fails can roll back safely.
func (s *Store) writeStripeBlocks(si *stripeInfo, bufs [][]byte, idx int) error {
	errs := make([]error, len(bufs))
	fanOut(len(bufs), func(pos int) {
		b := bufs[pos]
		binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], castagnoli))
		if err := s.cfg.Backend.Write(si.Nodes[pos], si.Keys[pos], b); err != nil {
			errs[pos] = fmt.Errorf("store: write stripe %d block %d: %w", idx, pos, err)
			return
		}
		s.m.putBlocks.Add(1)
		s.m.putBytes.Add(int64(len(b)))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// commit atomically publishes obj as the current version of its name —
// durably, when the plane has a WAL: the record is fsynced before commit
// returns, so an acked put survives a crash. Any version it replaces gets
// its tombstone in the same record and is retired: its blocks are deleted
// by a later batch, off this path (reclaim.go).
func (s *Store) commit(obj *objectInfo) error {
	var old *objectInfo
	err := s.db.Commit(func(tx *meta.Tx) {
		if v, ok := tx.Get(objKey(obj.Name)); ok {
			old = v.(*objectInfo)
			tx.Put(tombKey(old), old)
		}
		tx.Put(objKey(obj.Name), obj)
	})
	if err != nil {
		return err
	}
	if old != nil {
		s.retire(retiredOf(old))
	}
	return nil
}

// GetWriter streams an object to w stripe by stripe, reconstructing
// missing or corrupt blocks inline (light local decode first, so a
// single-loss stripe still costs the r=5 read set), with memory bounded
// by the two pipelined stripes. The ReadInfo reports what the read
// actually cost. It is the whole-object case of GetWindow: one pass over
// the version current at entry, with no retry.
func (s *Store) GetWriter(name string, w io.Writer) (ReadInfo, error) {
	return s.GetWindow(name, func(int64) (int64, int64, io.Writer) { return 0, -1, w })
}

// Get reads an object back, reconstructing missing or corrupt blocks
// inline (the degraded read path: rebuilt blocks are served, not written
// back — §1.1). The ReadInfo reports what the read actually cost. It is
// GetWriter into a buffer.
func (s *Store) Get(name string) ([]byte, ReadInfo, error) {
	var buf bytes.Buffer
	info, err := s.GetWriter(name, &buf)
	if err != nil {
		return nil, info, err
	}
	return buf.Bytes(), info, nil
}

// fetchResult is one stripe fetched (and if necessary reconstructed) by
// the get pipeline, with its own accounting so concurrent fetches never
// share counters; accts merge in stripe order. frames holds the blocks
// the cache declined — read into a frame, or rebuilt in one — and the
// caller releases it once nothing reads the stripe any more.
type fetchResult struct {
	stripe [][]byte
	frames frameSet
	acct   readAcct
	err    error
}

// fetchStripe reads a stripe's data blocks at positions [pLo, pHi] into
// the reusable scratch slice, reconstructing whatever is missing or
// corrupt. A full-object read passes [0, k-1]; a ranged read passes just
// the covering window, so bytes hit the backend only for blocks the range
// actually needs. scratch entries are cleared first, so a recycled slice
// never leaks a previous stripe's payloads.
//
// The hot-block cache is probed first: hits fill scratch straight from
// memory, and only the misses go to the backend — a fully cached stripe
// returns without touching the backend at all. Each miss is admitted or
// declined before it is read (blockCache.admit); with no cache, every
// miss is declined. A kept block is read, or rebuilt, into a buffer of
// its own and goes to the cache; a declined one is borrowed, in a frame
// of res.frames.
func (s *Store) fetchStripe(si *stripeInfo, scratch [][]byte, pLo, pHi int) fetchResult {
	clear(scratch)
	res := fetchResult{stripe: scratch, frames: frameSet{s: s, stripe: scratch}}
	c := s.cache
	want := make([]int, 0, pHi-pLo+1)
	keep := make([]bool, len(scratch))
	for pos := pLo; pos <= pHi; pos++ {
		if c != nil {
			if payload := c.get(si.Keys[pos]); payload != nil {
				scratch[pos] = payload
				continue
			}
			keep[pos] = c.admit(si.Keys[pos], int64(si.BlockLen))
		}
		want = append(want, pos)
	}
	if len(want) == 0 {
		return res
	}
	avail := make([]bool, len(scratch))
	for pos := range avail {
		avail[pos] = s.Alive(si.Nodes[pos])
	}
	lend := func(pos int) []byte {
		if keep[pos] {
			return nil
		}
		return res.frames.frame(pos)
	}
	if s.readStripe(si, scratch, want, avail, &res.acct, nil, lend) != nil {
		var missing []int
		for _, pos := range want {
			if scratch[pos] == nil {
				missing = append(missing, pos)
			}
		}
		res.acct.degraded = true
		res.err = s.reconstructPositions(si, scratch, missing, avail, &res.acct, nil, func(pos int) []byte {
			if keep[pos] {
				return make([]byte, si.BlockLen)
			}
			return lend(pos)[:si.BlockLen] // the frame the failed read was lent
		})
	}
	if c != nil && res.err == nil {
		// Cache what the backend (or the decode) just produced — but only
		// the wanted positions it admitted: reconstruction sources outside
		// the window were incidental, and admitting them would let one
		// degraded stripe evict a window's worth of genuinely hot blocks.
		for _, pos := range want {
			if keep[pos] && scratch[pos] != nil {
				c.add(si.Keys[pos], scratch[pos])
			}
		}
	}
	return res
}

// manifestSnapshot captures an object's manifest and pins it. Both
// happen inside one db.View — the shard read lock — and a racing commit
// takes that shard's write lock before it can replace the manifest, so
// the pin is atomic with the lookup, and the reclaim that follows an
// overwrite, delete or relocation commit is guaranteed to see it. No
// deep copy: manifests in the plane are copy-on-write (a relocation
// commits a replacement), so the captured manifest is immutable. The
// caller owns one unpin on ok=true.
func (s *Store) manifestSnapshot(name string) (*objectInfo, bool) {
	var obj *objectInfo
	s.db.View(objKey(name), func(v any, found bool) {
		if found {
			obj = v.(*objectInfo)
			s.pin(obj)
		}
	})
	return obj, obj != nil
}
