package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

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

// filledStripe is one stripe read from the source, in framed-block
// layout: bufs[i] is block i's backend frame, with the payload at
// bufs[i][4:4+BlockSize] (data blocks 0..k-1 filled from the reader,
// parity blocks encoded in place later). n is the real payload byte
// count; n < k·BlockSize only for the object's final stripe.
type filledStripe struct {
	bufs [][]byte
	n    int
	err  error // terminal source error (never io.EOF)
}

// PutReader stores an object streamed from r, replacing any previous
// version once the stream completes. The engine is double-buffered: a
// reader goroutine fills the next stripe's framed block buffers while the
// current stripe encodes, and each stripe's blocks go to the backend
// through a bounded write pool. Full stripes never copy: data is read
// directly into framed buffers, parities are encoded into framed buffers,
// and an ownership-transferring backend (MemBackend) keeps those very
// buffers as the stored blocks. On any error nothing is committed and all
// blocks already written are deleted.
//
// After an error return the internal reader may still be inside one
// blocked Read of r until that read unblocks (the same contract as
// net/http request bodies): do not reuse r, and close it to release the
// reader promptly — closing an *os.File or net.Conn interrupts the read.
// On success the reader has always exited.
func (s *Store) PutReader(name string, r io.Reader) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	k := s.cfg.Codec.K()
	n := s.cfg.Codec.NStored()
	bs := s.cfg.BlockSize
	gen := s.gen.Add(1)
	obj := &objectInfo{Name: name, Gen: gen}
	// On any mid-stream failure, blocks already written would be orphaned
	// (no manifest ever references them), so roll them back.
	fail := func(err error) error {
		s.deleteBlocks(obj)
		return err
	}
	owned := s.ownedW != nil
	// Double buffer: with a copying backend two framed buffer sets cycle
	// through the free list; with an owning backend the stored buffers
	// are gone for good, so the reader allocates fresh sets and the
	// fills channel's capacity bounds how far ahead it runs.
	free := make(chan [][]byte, 2)
	if !owned {
		free <- makeFramedBufs(n, bs)
		free <- makeFramedBufs(n, bs)
	}
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
			var bufs [][]byte
			total := 0
			var rerr error
			start := 0
			if owned {
				select {
				case <-stop:
					return
				default:
				}
				// A 1-byte probe decides EOF before the stripe slab is
				// allocated: an object sized an exact multiple of the
				// stripe would otherwise cost one discarded multi-MiB
				// slab on its terminal empty read.
				var probe [1]byte
				if _, err := io.ReadFull(r, probe[:]); err != nil {
					f := filledStripe{}
					if err != io.EOF {
						f.err = err
					}
					select {
					case fills <- f:
					case <-stop:
					}
					return
				}
				bufs = makeFramedBufs(n, bs)
				bufs[0][4] = probe[0]
				m, err := io.ReadFull(r, bufs[0][5:4+bs])
				total = 1 + m
				if err != nil {
					rerr = err
				}
				start = 1
			} else {
				select {
				case bufs = <-free:
				case <-stop:
					return
				}
			}
			for i := start; i < k && rerr == nil; i++ {
				m, err := io.ReadFull(r, bufs[i][4:4+bs])
				total += m
				if err != nil {
					rerr = err
				}
			}
			f := filledStripe{bufs: bufs, n: total}
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
		if f.n == 0 {
			continue // bare EOF on a stripe boundary
		}
		if f.n == k*bs {
			if err := s.putStripeFramed(obj, f.bufs); err != nil {
				return fail(err)
			}
			if !owned {
				select {
				case free <- f.bufs:
				default:
				}
			}
		} else {
			// Short final stripe: gather the scattered prefix into one
			// chunk and re-frame at the shrunken block length (the layout
			// above no longer matches). At most once per object.
			chunk := make([]byte, f.n)
			off := 0
			for i := 0; i < k && off < f.n; i++ {
				off += copy(chunk[off:], bufs4(f.bufs[i], bs))
			}
			if err := s.putStripeShort(obj, chunk); err != nil {
				return fail(err)
			}
		}
		obj.Size += f.n
	}
	if err := s.commit(obj); err != nil {
		return fail(fmt.Errorf("store: commit object %q: %w", name, err))
	}
	return nil
}

// bufs4 returns the payload window of a framed block buffer.
func bufs4(b []byte, bs int) []byte { return b[4 : 4+bs] }

// makeFramedBufs allocates one slab carved into n framed block buffers
// of payloadLen bytes each: one allocation instead of n, and safe to
// hand to an owning backend because a stripe's blocks are always retired
// together.
func makeFramedBufs(n, payloadLen int) [][]byte {
	fl := 4 + payloadLen
	return carveFramedBufs(make([]byte, n*fl), n, payloadLen)
}

// carveFramedBufs slices an existing slab (len ≥ n·(4+payloadLen)) into
// n framed block buffers — the repair workers' slab-reuse path.
func carveFramedBufs(slab []byte, n, payloadLen int) [][]byte {
	fl := 4 + payloadLen
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = slab[i*fl : (i+1)*fl : (i+1)*fl]
	}
	return bufs
}

// putStripeFramed encodes and writes one full stripe already laid out in
// framed block buffers: parities are encoded directly into the framed
// payload windows, CRC headers are stamped in place, and the n blocks go
// to the backend through the bounded write pool — zero payload copies
// inside the store.
func (s *Store) putStripeFramed(obj *objectInfo, bufs [][]byte) error {
	k := s.cfg.Codec.K()
	n := s.cfg.Codec.NStored()
	bs := s.cfg.BlockSize
	data := make([][]byte, k)
	for i := 0; i < k; i++ {
		data[i] = bufs4(bufs[i], bs)
	}
	parity := make([][]byte, n-k)
	for j := range parity {
		parity[j] = bufs4(bufs[k+j], bs)
	}
	if err := s.cfg.Codec.EncodeInto(data, parity, s.encodeWorkers(k*bs)); err != nil {
		return err
	}
	return s.sealStripe(obj, bufs, k*bs, bs)
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
	nodes := s.placer.place(seq, s.placeableSnapshot())
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
	n := len(bufs)
	writeOne := func(pos int) error {
		b := bufs[pos]
		binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], castagnoli))
		var err error
		if s.ownedW != nil {
			err = s.ownedW.WriteOwned(si.Nodes[pos], si.Keys[pos], b)
		} else {
			err = s.cfg.Backend.Write(si.Nodes[pos], si.Keys[pos], b)
		}
		if err != nil {
			return fmt.Errorf("store: write stripe %d block %d: %w", idx, pos, err)
		}
		s.m.putBlocks.Add(1)
		s.m.putBytes.Add(int64(len(b)))
		return nil
	}
	workers := s.writeWorkers(n)
	if workers <= 1 {
		for pos := 0; pos < n; pos++ {
			if err := writeOne(pos); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range jobs {
				errs[pos] = writeOne(pos)
			}
		}()
	}
	for pos := 0; pos < n; pos++ {
		jobs <- pos
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// putStripeShort encodes and writes one short (final) stripe: the chunk
// is re-laid into a fresh framed slab at the shrunken block length
// (zero-padded by the fresh allocation), then encoded and written exactly
// like a full framed stripe. chunk must be non-empty and less than
// K·BlockSize bytes.
func (s *Store) putStripeShort(obj *objectInfo, chunk []byte) error {
	k := s.cfg.Codec.K()
	n := s.cfg.Codec.NStored()
	blockLen := (len(chunk) + k - 1) / k
	bufs := makeFramedBufs(n, blockLen)
	data := make([][]byte, k)
	parity := make([][]byte, n-k)
	for i := 0; i < k; i++ {
		data[i] = bufs4(bufs[i], blockLen)
		if lo := i * blockLen; lo < len(chunk) {
			copy(data[i], chunk[lo:])
		}
	}
	for j := range parity {
		parity[j] = bufs4(bufs[k+j], blockLen)
	}
	if err := s.cfg.Codec.EncodeInto(data, parity, s.encodeWorkers(len(chunk))); err != nil {
		return err
	}
	return s.sealStripe(obj, bufs, len(chunk), blockLen)
}

// commit atomically publishes obj as the current version of its name —
// durably, when the plane has a WAL: the record is fsynced before commit
// returns, so an acked put survives a crash. Any version it replaces is
// retired (reclaimed immediately, or at the last unpin if a streaming
// read still holds it).
func (s *Store) commit(obj *objectInfo) error {
	var old *objectInfo
	err := s.db.Commit(func(tx *meta.Tx) {
		if v, ok := tx.Get(objKey(obj.Name)); ok {
			old = v.(*objectInfo)
		}
		tx.Put(objKey(obj.Name), obj)
	})
	if err != nil {
		return err
	}
	if old != nil {
		s.retire(old)
	}
	return nil
}

// GetWriter streams an object to w stripe by stripe, reconstructing
// missing or corrupt blocks inline (light local decode first, so a
// single-loss stripe still costs the r=5 read set), with memory bounded
// by the two pipelined stripes. The ReadInfo reports what the read
// actually cost. It is the whole-object case of GetRange, with the same
// retry contract: once bytes are out, a failure is final.
func (s *Store) GetWriter(name string, w io.Writer) (ReadInfo, error) {
	return s.GetRange(name, 0, -1, w)
}

// Get reads an object back, reconstructing missing or corrupt blocks
// inline (the degraded read path: rebuilt blocks are served, not written
// back — §1.1). The ReadInfo reports what the read actually cost. It is
// the streaming path over a buffer, which — unlike an external writer —
// rewinds, so a stale-manifest retry stays possible mid-object.
func (s *Store) Get(name string) ([]byte, ReadInfo, error) {
	var buf bytes.Buffer
	info, err := s.readRetrying(name, 0, -1, &buf, func() bool { buf.Reset(); return true })
	if err != nil {
		return nil, info, err
	}
	info.BytesWritten = int64(buf.Len())
	return buf.Bytes(), info, nil
}

// readRetrying runs read attempts of [off, off+length) against fresh
// manifest snapshots until one succeeds or fails for good. A failed
// attempt can mean the snapshot went stale under the read: repair
// workers relocate blocks without a generation bump, and an overwrite
// replaces the version with one. A fresh snapshot sees the current
// block locations, so retry — but only while w can still be rewound
// (rewind reports whether it was) and the manifest is actually moving
// (the muts counter): a failure with an unchanged manifest is genuinely
// lost data, and retrying would just re-read every stripe to fail
// again.
func (s *Store) readRetrying(name string, off, length int64, w io.Writer, rewind func() bool) (ReadInfo, error) {
	for attempt := 0; ; attempt++ {
		gen0, muts0, _ := s.versionState(name)
		info, gen, err := s.streamRangeVersion(name, off, length, w)
		if err == nil || attempt >= 8 || !rewind() {
			return info, err
		}
		curGen, curMuts, found := s.versionState(name)
		if !found {
			// Deleted mid-read: not-found is the truthful outcome.
			return info, fmt.Errorf("%w: %q", ErrObjectNotFound, name)
		}
		if curGen == gen && curGen == gen0 && curMuts == muts0 {
			// This object's manifest never moved around the attempt:
			// the snapshot was current and the failure is genuine.
			return info, err
		}
	}
}

// fetchResult is one stripe fetched (and if necessary reconstructed) by
// the get pipeline, with its own accounting so concurrent fetches never
// share counters; accts merge in stripe order. pinned holds the cache
// entries whose payloads sit in stripe — the caller releases them once
// the stripe has drained, whichever way the read ends.
type fetchResult struct {
	stripe [][]byte
	acct   readAcct
	pinned []*cacheEntry
	err    error
}

// release unpins the cache entries this fetch pinned. Safe to call more
// than once and on a result with no pins.
func (r *fetchResult) release(c *blockCache) {
	if len(r.pinned) == 0 {
		return
	}
	for _, e := range r.pinned {
		c.unpin(e)
	}
	r.pinned = nil
}

// fetchStripe reads a stripe's data blocks at positions [pLo, pHi] —
// concurrently when the read pool allows — into the reusable scratch
// slice, reconstructing whatever is missing or corrupt. A full-object
// read passes [0, k-1]; a ranged read passes just the covering window,
// so bytes hit the backend only for blocks the range actually needs.
// scratch entries are cleared first, so a recycled slice never leaks a
// previous stripe's payloads.
//
// The hot-block cache is probed first: hits fill scratch straight from
// memory, pinned until the caller releases the result so eviction can
// never recycle a payload under the decode, and only the misses go to
// the backend — a fully cached stripe returns without touching the
// backend or arming the hedge machinery at all.
func (s *Store) fetchStripe(si *stripeInfo, scratch [][]byte, pLo, pHi int) fetchResult {
	for i := range scratch {
		scratch[i] = nil
	}
	res := fetchResult{stripe: scratch}
	want := make([]int, 0, pHi-pLo+1)
	if c := s.cache; c != nil {
		for pos := pLo; pos <= pHi; pos++ {
			if payload, e := c.get(si.Keys[pos]); e != nil {
				scratch[pos] = payload
				res.pinned = append(res.pinned, e)
			} else {
				want = append(want, pos)
			}
		}
	} else {
		for pos := pLo; pos <= pHi; pos++ {
			want = append(want, pos)
		}
	}
	if len(want) == 0 {
		return res
	}
	n := s.cfg.Codec.NStored()
	avail := make([]bool, n)
	for pos := 0; pos < n; pos++ {
		avail[pos] = s.Alive(si.Nodes[pos])
	}
	if d := s.hedgeDelay(); d > 0 {
		s.fetchPositionsHedged(si, scratch, want, avail, &res, d)
	} else {
		s.fetchPositions(si, scratch, want, avail, &res)
	}
	if c := s.cache; c != nil && res.err == nil {
		// Cache what the backend (or the decode) just produced — but only
		// the wanted positions: reconstruction sources outside the window
		// were incidental, and admitting them would let one degraded
		// stripe evict a window's worth of genuinely hot blocks.
		for _, pos := range want {
			if scratch[pos] != nil {
				c.add(si.Keys[pos], scratch[pos])
			}
		}
	}
	return res
}

// fetchPositions reads the wanted stripe positions — concurrently when
// the read pool allows — into scratch, reconstructing whatever is
// missing or corrupt. avail marks positions believed readable and is
// downgraded as fetches fail; accounting and errors land in res.
func (s *Store) fetchPositions(si *stripeInfo, scratch [][]byte, want []int, avail []bool, res *fetchResult) {
	if !s.fetchBlocks(si, scratch, want, avail, &res.acct, nil) {
		return
	}
	var missing []int
	for _, pos := range want {
		if scratch[pos] == nil {
			missing = append(missing, pos)
		}
	}
	res.acct.degraded = true
	if err := s.reconstructPositions(si, scratch, missing, avail, &res.acct, nil, nil); err != nil {
		res.err = err
	}
}

// manifestSnapshot captures an object's stripe manifest and pins the
// version. Both happen inside one db.View — the shard read lock — and a
// racing commit takes that shard's write lock before it can replace the
// manifest, so the pin is atomic with the lookup and the overwrite is
// guaranteed to see it when it retires this version. No deep copy:
// manifests in the plane are copy-on-write (a relocation commits a
// replacement), so the captured slices are immutable. The caller owns
// one unpin on ok=true.
func (s *Store) manifestSnapshot(name string) ([]stripeInfo, int64, bool) {
	var stripes []stripeInfo
	var gen int64
	ok := false
	s.db.View(objKey(name), func(v any, found bool) {
		if !found {
			return
		}
		obj := v.(*objectInfo)
		stripes, gen, ok = obj.Stripes, obj.Gen, true
		s.pin(name, obj.Gen)
	})
	return stripes, gen, ok
}

// versionState returns name's current generation and mutation count
// (repair relocations), and whether the object exists. A read whose
// attempt failed retries only when this pair has moved: gen changes on
// overwrite, muts on relocation, and an unchanged pair means the failed
// snapshot was current — genuine data loss, not staleness.
func (s *Store) versionState(name string) (gen, muts int64, found bool) {
	v, ok := s.db.Get(objKey(name))
	if !ok {
		return 0, 0, false
	}
	obj := v.(*objectInfo)
	return obj.Gen, obj.muts, true
}

// countingWriter tracks how many bytes reached the underlying writer, so
// GetRange knows whether a retry is still possible.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
