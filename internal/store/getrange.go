package store

import (
	"fmt"
	"io"
)

// rangeSeg is one stripe's overlap with a requested range: the stripe
// index, the byte window [lo, hi) within the stripe's data, and the
// covering block positions [pLo, pHi].
type rangeSeg struct {
	idx      int
	lo, hi   int
	pLo, pHi int
}

// GetWindow streams bytes [off, off+length) of an object's current
// version to w, with the window chosen after that version is known. It
// snapshots and pins the version, then calls choose once with its size;
// choose returns off, length and w, or a nil writer to read nothing (a
// zero ReadInfo and no error). length < 0 means "to the end"; off
// outside [0, size] returns ErrBadRange; length past the end is clamped.
// Whatever choose decides — a response's headers, its admission — and
// the bytes streamed to w all describe that one version: the pin keeps
// every block the snapshot names on its node until the read ends, so a
// concurrent overwrite, delete, repair or rebalance never takes a block
// from under it. The serving tier's GET rides on this. choose runs on
// the caller's goroutine, holding no lock.
//
// Only the stripes the window overlaps are visited and, within each,
// only the data blocks it covers are read (reconstructed when missing or
// corrupt, exactly like a full read) — a small range on a large object
// costs its covering blocks, not the object. A failure — a stripe that
// cannot be decoded, a writer that refuses bytes — is final. The
// ReadInfo counts the bytes that reached w.
//
// The stripe pipeline is one deep: while segment i drains to w, segment
// i+1 is already being fetched into the other of two scratch slices
// that ping-pong for the whole read (the only per-stripe state), and
// each fetch covers only the blocks its byte window needs. The blocks
// the cache declines are borrowed from the store's frame pool and go
// back only after their segment has drained to w, or, on an early
// return, once the prefetch has been joined.
func (s *Store) GetWindow(name string, choose func(size int64) (off, length int64, w io.Writer)) (ReadInfo, error) {
	obj, ok := s.manifestSnapshot(name)
	if !ok {
		return ReadInfo{}, fmt.Errorf("%w: %q", ErrObjectNotFound, name)
	}
	// The snapshot pinned this manifest (see manifestSnapshot); hold the
	// pin for the whole read so no block it names is reclaimed under us,
	// and release it whichever way the read ends.
	defer s.unpin(obj)
	stripes := obj.Stripes
	k := s.cfg.Codec.K()
	var size int64
	for i := range stripes {
		size += int64(stripes[i].DataLen)
	}
	off, length, w := choose(size)
	if w == nil {
		return ReadInfo{}, nil
	}
	if off < 0 || off > size {
		return ReadInfo{}, fmt.Errorf("%w: offset %d of %d-byte object %q", ErrBadRange, off, size, name)
	}
	// A whole-object read (Get, GetWriter) fetches all k data positions
	// of every stripe, as it always has — including the padding-only tail
	// positions of a final stripe too short to reach block k-1, so a Get
	// costs k reads per stripe whatever the object's length. Any other
	// window reads only its covering blocks.
	whole := off == 0 && length < 0
	if length < 0 || off+length > size {
		length = size - off
	}
	if length == 0 {
		// Empty window — an explicit zero length, or off == size. The
		// segment mapping below would also come up empty, but an explicit
		// gate keeps "no bytes wanted, no backend reads" an invariant
		// rather than a side effect of the loop bounds.
		return ReadInfo{}, nil
	}
	end := off + length
	// Map the byte range onto stripe segments: [lo, hi) within each
	// overlapping stripe, and the block positions covering that window.
	var segs []rangeSeg
	base := int64(0)
	for i := range stripes {
		dl := int64(stripes[i].DataLen)
		if base+dl <= off {
			base += dl
			continue
		}
		if base >= end {
			break
		}
		lo, hi := int64(0), dl
		if off > base {
			lo = off - base
		}
		if end < base+dl {
			hi = end - base
		}
		if hi > lo {
			bl := int64(stripes[i].BlockLen)
			seg := rangeSeg{
				idx: i,
				lo:  int(lo), hi: int(hi),
				pLo: int(lo / bl), pHi: int((hi - 1) / bl),
			}
			if whole {
				seg.pHi = k - 1
			}
			segs = append(segs, seg)
		}
		base += dl
	}
	n := s.cfg.Codec.NStored()
	acct := &readAcct{}
	var written int64
	done := func(err error) (ReadInfo, error) {
		info := acct.info()
		info.BytesWritten = written
		return info, err
	}
	scratch := [2][][]byte{make([][]byte, n), make([][]byte, n)}
	startFetch := func(i int) chan fetchResult {
		ch := make(chan fetchResult, 1)
		go func() {
			ch <- s.fetchStripe(&stripes[segs[i].idx], scratch[i%2], segs[i].pLo, segs[i].pHi)
		}()
		return ch
	}
	var pending chan fetchResult
	if len(segs) > 0 {
		pending = startFetch(0)
	}
	for i := range segs {
		res := <-pending
		pending = nil
		// The stripe's reads land in the store-wide counters before its
		// bytes reach w, so a client that holds the whole body finds the
		// GET's full cost in Metrics(). degradedReads counts GETs, not
		// stripes: only the first degraded stripe carries the flag.
		if acct.degraded {
			res.acct.degraded = false
		}
		s.m.mergeRead(&res.acct)
		acct.add(&res.acct)
		if res.err != nil {
			res.frames.release()
			return done(fmt.Errorf("store: degraded read of %q stripe %d: %w", name, segs[i].idx, res.err))
		}
		if i+1 < len(segs) {
			pending = startFetch(i + 1)
		}
		seg := &segs[i]
		bl := stripes[seg.idx].BlockLen
		for pos := seg.pLo; pos <= seg.pHi; pos++ {
			part := res.stripe[pos]
			// Trim the block's payload to the stripe's data (short final
			// stripe) and then to the segment's byte window.
			blockLo, blockHi := pos*bl, (pos+1)*bl
			if blockHi > seg.hi {
				blockHi = seg.hi
			}
			cutLo := 0
			if seg.lo > blockLo {
				cutLo = seg.lo - blockLo
			}
			if blockHi <= blockLo+cutLo {
				continue
			}
			part = part[cutLo : blockHi-blockLo]
			n, err := w.Write(part)
			written += int64(n)
			if err != nil {
				res.frames.release()
				if pending != nil {
					// Join the prefetch, so no fetch outlives the version
					// pin and no frame goes back under a read into it; its
					// reads are uncharged on this failure path.
					next := <-pending
					next.frames.release()
				}
				return done(fmt.Errorf("store: write object %q: %w", name, err))
			}
		}
		// w has taken the segment (io.Writer keeps no slice past Write).
		res.frames.release()
	}
	return done(nil)
}
