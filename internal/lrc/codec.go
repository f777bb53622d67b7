package lrc

import (
	"bytes"
	"fmt"

	"repro/internal/gf"
)

// Encode computes the full stored stripe for K data shards: the data,
// the Reed-Solomon global parities, and the local parities (plus S_impl
// if StoreImplied). Shards must be non-nil and equal length; they are
// referenced, not copied. This is the HDFS-Xorbas encoder of §3.1.1.
// Every non-data block is a generator-column combination of the data, so
// one loop covers both the LRC and pyramid layouts; zero coefficients
// short-circuit, which keeps the local XOR parities as cheap as a direct
// XOR pass.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if err := c.checkEncodeArgs(data); err != nil {
		return nil, err
	}
	size := len(data[0])
	stripe := make([][]byte, c.nStored)
	copy(stripe, data)
	parity := make([][]byte, c.nStored-c.params.K)
	for j := range parity {
		parity[j] = make([]byte, size)
		stripe[c.params.K+j] = parity[j]
	}
	c.encodeRange(data, parity, 0, size)
	return stripe, nil
}

// EncodeInto computes the NStored−K parity blocks directly into the
// caller's buffers, overwriting them — the streaming store's zero-copy
// path, where parity payloads are encoded straight into framed backend
// buffers and no per-stripe parity allocation happens. parity[j] is
// stored block K+j and must have the data shards' length.
func (c *Code) EncodeInto(data, parity [][]byte) error {
	if err := c.checkEncodeArgs(data); err != nil {
		return err
	}
	if len(parity) != c.nStored-c.params.K {
		return fmt.Errorf("lrc: got %d parity buffers, want %d", len(parity), c.nStored-c.params.K)
	}
	size := len(data[0])
	for j, p := range parity {
		if p == nil || len(p) != size {
			return fmt.Errorf("lrc: parity buffer %d nil or size mismatch", j)
		}
	}
	c.encodeRange(data, parity, 0, size)
	return nil
}

// checkEncodeArgs validates the data shard slice for the encoders.
func (c *Code) checkEncodeArgs(data [][]byte) error {
	if len(data) != c.params.K {
		return fmt.Errorf("lrc: got %d data shards, want %d", len(data), c.params.K)
	}
	size := len(data[0])
	for i, d := range data {
		if d == nil || len(d) != size {
			return fmt.Errorf("lrc: data shard %d nil or size mismatch", i)
		}
	}
	return nil
}

// encodeRange fills every parity column over the data byte window
// [from, to) with the wide tables: each 8-column group costs one pass
// over the data instead of one per column. The window form is what the
// parallel encoder splits on (any byte split is valid — the code is
// byte-wise); it is handed down as is, so a sub-range allocates nothing.
// Parity buffers are overwritten, so dirty (reused) buffers are fine.
func (c *Code) encodeRange(data, parity [][]byte, from, to int) {
	if from >= to {
		return
	}
	lo := 0
	for _, w := range c.wideTables() {
		w.Dot(parity[lo:lo+w.Lanes()], data, from, to)
		lo += w.Lanes()
	}
}

// Exists reports whether stripe position i is physically stored when the
// stripe holds dataCount ≤ K real data blocks. Padding data blocks do not
// exist; a local parity exists only if its group covers at least one real
// data block; global parities and S_impl always exist (they mix all data).
// Positions outside the stripe do not exist.
func (c *Code) Exists(i, dataCount int) bool {
	if i < 0 || i >= len(c.kinds) {
		return false
	}
	switch c.kinds[i] {
	case Data:
		return i < dataCount
	case GlobalParity:
		return true
	case LocalParity:
		gi := c.groupOf[i]
		if gi >= len(c.dataGroups) {
			return true // the parity group's stored local parity (S_impl)
		}
		return c.dataGroups[gi][0] < dataCount
	}
	return false
}

// StoredCount returns how many blocks a stripe with dataCount real data
// blocks stores. For Xorbas with dataCount=10 this is 16; with 3 (the
// Facebook small-file case, Table 3) it is 3+4+1 = 8.
func (c *Code) StoredCount(dataCount int) int {
	n := 0
	for i := 0; i < c.nStored; i++ {
		if c.Exists(i, dataCount) {
			n++
		}
	}
	return n
}

// ReconstructBlock rebuilds the payload of stored block i from a stripe
// with nil entries for missing blocks, preferring the light decoder
// (§3.1.2). It returns the payload, whether the light decoder sufficed,
// and an error if neither decoder can proceed. The input stripe is not
// modified — this is also the degraded-read path, where the rebuilt block
// is served but never written back (§1.1).
func (c *Code) ReconstructBlock(stripe [][]byte, i int) (payload []byte, light bool, err error) {
	payloads, lights, err := c.ReconstructMany(stripe, []int{i})
	if err != nil {
		return nil, false, err
	}
	return payloads[0], lights[0], nil
}

// ReconstructMany rebuilds the payloads of the requested stored blocks in
// one batched pass: light recipes first — iterated to fixpoint, so a
// rebuilt block can unlock another's recipe (two losses chained through
// the implied parity group) — then a single heavy solve shared by every
// remaining position. Repairing m losses costs one plan/decode pass
// through the field package's XOR and table kernels instead of m full
// O(k²) stripe decodes. The input stripe is not modified.
//
// payloads is aligned with positions; a nil entry means that block could
// not be rebuilt. light[i] reports whether the light decoder rebuilt
// payloads[i]. err is non-nil when any position failed, but the
// rebuildable payloads are still returned — the partial progress a
// repair worker persists on an unrecoverable stripe.
func (c *Code) ReconstructMany(stripe [][]byte, positions []int) (payloads [][]byte, light []bool, err error) {
	if len(stripe) != c.nStored {
		return nil, nil, fmt.Errorf("lrc: got %d stripe entries, want %d", len(stripe), c.nStored)
	}
	size := -1
	for _, s := range stripe {
		if s != nil {
			size = len(s)
			break
		}
	}
	if size <= 0 {
		return nil, nil, fmt.Errorf("lrc: empty stripe")
	}
	dst := make([][]byte, len(positions))
	for oi := range dst {
		dst[oi] = make([]byte, size)
	}
	filled, light, err := c.ReconstructManyInto(stripe, positions, dst)
	if filled == nil {
		return nil, nil, err
	}
	for oi, ok := range filled {
		if !ok {
			dst[oi] = nil
		}
	}
	return dst, light, err
}

// ReconstructManyInto is ReconstructMany decoding into the caller's
// buffers: dst is aligned with positions, each entry sized to the
// stripe's shard length; stale contents are overwritten, never read.
// filled[i] reports whether dst[i] now holds the rebuilt payload (the
// partial-progress signal — buffers cannot be nil'd the way
// ReconstructMany's payloads can). Rebuilt buffers may be read as
// sources for chained light repairs, so dst entries must not alias each
// other or the stripe. The store's repair engine decodes straight into
// reusable framed block slabs through this.
func (c *Code) ReconstructManyInto(stripe [][]byte, positions []int, dst [][]byte) (filled, light []bool, err error) {
	if len(stripe) != c.nStored {
		return nil, nil, fmt.Errorf("lrc: got %d stripe entries, want %d", len(stripe), c.nStored)
	}
	if len(dst) != len(positions) {
		return nil, nil, fmt.Errorf("lrc: got %d dst buffers, want %d", len(dst), len(positions))
	}
	work := make([][]byte, c.nStored)
	copy(work, stripe)
	filled = make([]bool, len(positions))
	light = make([]bool, len(positions))
	remaining := 0
	for oi, p := range positions {
		if p < 0 || p >= c.nStored {
			return nil, nil, fmt.Errorf("lrc: position %d out of range [0,%d)", p, c.nStored)
		}
		if work[p] != nil {
			if len(dst[oi]) != len(work[p]) {
				return nil, nil, fmt.Errorf("lrc: dst buffer %d has size %d, want %d", oi, len(dst[oi]), len(work[p]))
			}
			copy(dst[oi], work[p])
			filled[oi] = true
			light[oi] = true
		} else {
			remaining++
		}
	}
	// Light fixpoint over the requested positions: rebuilding one block
	// can unlock another's recipe (losses chained through the implied
	// parity group).
	for remaining > 0 {
		progressed := false
		for oi, p := range positions {
			if filled[oi] {
				continue
			}
			r := c.recipes[p]
			if r == nil {
				continue
			}
			size := -1
			ready := true
			for _, j := range r.reads {
				if work[j] == nil {
					ready = false
					break
				}
				size = len(work[j])
			}
			if !ready || size <= 0 {
				continue
			}
			if len(dst[oi]) != size {
				return nil, nil, fmt.Errorf("lrc: dst buffer %d has size %d, want %d", oi, len(dst[oi]), size)
			}
			srcs := make([][]byte, len(r.reads))
			for jj, j := range r.reads {
				srcs[jj] = work[j]
			}
			c.f.DotSlices(r.coefs, dst[oi], srcs)
			work[p] = dst[oi]
			filled[oi] = true
			light[oi] = true
			progressed = true
			remaining--
		}
		if !progressed {
			break
		}
	}
	if remaining == 0 {
		return filled, light, nil
	}
	// One shared heavy solve for whatever is left. work already holds the
	// light-pass results, so they count toward the decoder's rank.
	var rest []int
	var restDst [][]byte
	for oi, p := range positions {
		if !filled[oi] {
			rest = append(rest, p)
			restDst = append(restDst, dst[oi])
		}
	}
	if err := c.solveColsInto(work, rest, restDst); err != nil {
		return filled, light, err
	}
	for oi := range positions {
		if !filled[oi] {
			filled[oi] = true
		}
	}
	return filled, light, nil
}

// solveColsInto runs the heavy decoder for the requested positions with
// one fused pass per target: the decode vector d_t[j] =
// Σ_i inv[j,i]·G[i,t] collapses the data solve and the column re-encode
// into a single slice combination over the k chosen survivors. It is the
// only heavy decoder: every Reconstruct* entry point ends here. dst
// entries are overwritten.
func (c *Code) solveColsInto(stripe [][]byte, positions []int, dst [][]byte) error {
	k := c.params.K
	var avail []int
	size := -1
	for i, s := range stripe {
		if s == nil {
			continue
		}
		avail = append(avail, i)
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("lrc: shard size mismatch at %d", i)
		}
	}
	if size <= 0 {
		return fmt.Errorf("lrc: empty stripe")
	}
	for oi := range dst {
		if len(dst[oi]) != size {
			return fmt.Errorf("lrc: dst buffer %d has size %d, want %d", oi, len(dst[oi]), size)
		}
	}
	d, err := c.decoderFor(avail)
	if err != nil {
		return err
	}
	srcs := make([][]byte, k)
	for j, cj := range d.chosen {
		srcs[j] = stripe[cj]
	}
	coef := make([]gf.Elem, k)
	for oi, t := range positions {
		for j := 0; j < k; j++ {
			if t < k {
				// Systematic data column: G[i,t] = δ_it.
				coef[j] = d.inv.At(j, t)
				continue
			}
			var acc gf.Elem
			for i := 0; i < k; i++ {
				acc = c.f.Add(acc, c.f.Mul(d.inv.At(j, i), c.gen.At(i, t)))
			}
			coef[j] = acc
		}
		c.f.DotSlices(coef, dst[oi], srcs)
	}
	return nil
}

// decoderFor computes the heavy decoder for the available blocks: K of
// them with independent generator columns (data columns preferred, so
// the solve degenerates to copies where it can) and the inverse over
// those. Nothing is memoized: the elimination and the K×K inverse cost
// microseconds, the blocks a decode moves cost milliseconds.
func (c *Code) decoderFor(avail []int) (*decoder, error) {
	k := c.params.K
	rows := make([]int, k)
	for i := range rows {
		rows[i] = i
	}
	chosen := c.independentOnRows(avail, rows)
	if len(chosen) < k {
		return nil, fmt.Errorf("lrc: unrecoverable: available blocks have rank %d < %d", len(chosen), k)
	}
	inv, err := c.gen.SelectCols(chosen).Inverse()
	if err != nil {
		return nil, fmt.Errorf("lrc: internal: chosen columns singular: %w", err)
	}
	return &decoder{chosen: chosen, inv: inv}, nil
}

// Verify recomputes the stripe from its data shards and reports whether
// every stored block is consistent. All NStored entries must be non-nil.
// The parities are recomputed into a buffer from the code's scratch
// pool, so a check allocates no block.
func (c *Code) Verify(stripe [][]byte) (bool, error) {
	if len(stripe) != c.nStored {
		return false, fmt.Errorf("lrc: got %d stripe entries, want %d", len(stripe), c.nStored)
	}
	for i, s := range stripe {
		if s == nil {
			return false, fmt.Errorf("lrc: Verify requires all blocks, %d missing", i)
		}
	}
	k, size := c.params.K, len(stripe[0])
	buf, _ := c.scratch.Get().(*[]byte)
	if buf == nil || cap(*buf) < (c.nStored-k)*size {
		b := make([]byte, (c.nStored-k)*size)
		buf = &b
	}
	defer c.scratch.Put(buf)
	parity := make([][]byte, c.nStored-k)
	for j := range parity {
		parity[j] = (*buf)[j*size : (j+1)*size]
	}
	if err := c.EncodeInto(stripe[:k], parity); err != nil {
		return false, err
	}
	for j, p := range parity {
		if !bytes.Equal(p, stripe[k+j]) {
			return false, nil
		}
	}
	return true, nil
}
