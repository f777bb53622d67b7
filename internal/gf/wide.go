package gf

// Multi-column kernels: the encoder's core operation is P parity columns,
// each a dot product of the same K data slices with different
// coefficients. Done column-at-a-time that reads every data byte P times;
// a WideTables set computes the whole column group in one pass over the
// data, in one of two bodies chosen when it is built.
//
// Vector body (useVector: amd64 with AVX2). Columns whose coefficients
// are all 0 or 1 (the Xorbas local parities) are XOR rows: each goes
// through the XOR kernel over the sources it names, with no tables. Every
// other column is a row of 32-byte nibble tables, and the rows go through
// the shuffle kernel four at a time: one load and one nibble split of
// each source serve four parities, exactly the four dense rows RS(10,4)
// and Xorbas have.
//
// Portable body (everywhere else). For each data source s the P
// byte-products {c_{0,s}·a, …, c_{P-1,s}·a} of every possible byte a are
// packed into one uint64 (one lane per column, P ≤ 8), so the whole
// parity set needs exactly ONE table lookup per data byte: 256 entries ×
// 8 B = 2 KiB per source stays L1-resident. The vector body never builds
// these.

// WideLanes is the lane capacity of a WideTables set.
const WideLanes = 8

// wideChunk is the positions processed per pass. Portable body: one
// accumulator flush, 8 KiB of uint64 that stays cache-hot against ~20 KiB
// of tables. Vector body: K sources of it stay in L1 from the dense rows
// to the XOR rows (1–64 KiB measure the same, unchunked 8 % slower).
const wideChunk = 1024

// WideTables computes up to 8 linear-combination columns of K byte
// slices in one data pass. Immutable after construction; safe for
// concurrent use.
type WideTables struct {
	k     int
	lanes int
	tabs  [][256]uint64 // portable body: tabs[s][a], lane l = byte of column l for source s

	// Vector body (tabs == nil): every lane is in one of quads and xors;
	// f and cols serve the sub-32-byte tail.
	f     *Field
	cols  [][]Elem
	quads []vectorQuad
	xors  []xorRow
}

// vectorQuad is four dense columns: tab[s][r] multiplies source s into
// column lanes[r]. xorRow is a column that is the plain XOR of srcs.
type vectorQuad struct {
	lanes [4]int
	tab   [][4]nibTab
}

type xorRow struct {
	lane int
	srcs []int
}

// NewWideTables builds the packed tables for cols, a list of coefficient
// columns (one per output lane, each of length K over the data sources).
// Requires GF(2^8), 1 ≤ len(cols) ≤ WideLanes.
func (f *Field) NewWideTables(cols [][]Elem) *WideTables {
	if f.m != 8 {
		panic("gf: NewWideTables requires GF(2^8)")
	}
	if len(cols) == 0 || len(cols) > WideLanes {
		panic("gf: NewWideTables needs 1..8 columns")
	}
	k := len(cols[0])
	for _, col := range cols {
		if len(col) != k {
			panic("gf: NewWideTables column length mismatch")
		}
	}
	w := &WideTables{k: k, lanes: len(cols)}
	if useVector {
		w.f, w.cols = f, cols
		w.buildVector()
		return w
	}
	w.tabs = make([][256]uint64, k)
	for s := 0; s < k; s++ {
		for l, col := range cols {
			row := f.mulRow(col[s])
			sh := 8 * uint(l)
			for a := 0; a < 256; a++ {
				w.tabs[s][a] |= uint64(row[a]) << sh
			}
		}
	}
	return w
}

// buildVector sorts the columns into XOR rows and dense rows and builds
// the dense rows' nibble tables, four rows to a group. A short last group
// repeats its last lane — the kernel then computes and stores that column
// more than once — which costs shapes neither shipped code has less than
// a third kind of row would.
func (w *WideTables) buildVector() {
	var dense []int
	for l, col := range w.cols {
		var ones []int
		xor := true
		for s, c := range col {
			xor = xor && c <= 1
			if c == 1 {
				ones = append(ones, s)
			}
		}
		if xor && len(ones) > 0 {
			w.xors = append(w.xors, xorRow{l, ones})
		} else {
			dense = append(dense, l)
		}
	}
	for ; len(dense) > 0; dense = dense[min(4, len(dense)):] {
		q := vectorQuad{tab: make([][4]nibTab, w.k)}
		for r := range q.lanes {
			q.lanes[r] = dense[min(r, len(dense)-1)]
			for s := range q.tab {
				q.tab[s][r] = w.f.nibbles(w.cols[q.lanes[r]][s])
			}
		}
		w.quads = append(w.quads, q)
	}
}

// Lanes returns the number of output columns.
func (w *WideTables) Lanes() int { return w.lanes }

// Dot overwrites dsts[l][i], for i in the byte window [from, to), with
// column l of the combination of the K source slices. dsts must have
// Lanes() entries and srcs K() entries, all of one length that holds the
// window; everything is checked before the first byte is written.
func (w *WideTables) Dot(dsts, srcs [][]byte, from, to int) {
	if len(srcs) != w.k {
		panic("gf: WideTables.Dot source count mismatch")
	}
	if len(dsts) != w.lanes {
		panic("gf: WideTables.Dot destination count mismatch")
	}
	n := len(dsts[0])
	if !allLen(srcs, n) || !allLen(dsts, n) {
		panic("gf: WideTables.Dot length mismatch")
	}
	if from < 0 || from > to || to > n {
		panic("gf: WideTables.Dot window out of range")
	}
	if w.tabs == nil {
		for base := from; base < to; base += wideChunk {
			w.dotChunk(dsts, srcs, base, min(wideChunk, to-base))
		}
		return
	}
	var acc [wideChunk]uint64
	for base := from; base < to; base += wideChunk {
		cl := min(wideChunk, to-base)
		a := acc[:cl]
		s := 0
		// First group overwrites the accumulator; 5-source groups keep
		// the lookups register-combined with one accumulator store each.
		for ; s+5 <= w.k; s += 5 {
			t0, t1, t2, t3, t4 := &w.tabs[s], &w.tabs[s+1], &w.tabs[s+2], &w.tabs[s+3], &w.tabs[s+4]
			s0 := srcs[s][base : base+cl]
			s1 := srcs[s+1][base : base+cl]
			s2 := srcs[s+2][base : base+cl]
			s3 := srcs[s+3][base : base+cl]
			s4 := srcs[s+4][base : base+cl]
			if s == 0 {
				for i := range a {
					a[i] = t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]] ^ t4[s4[i]]
				}
			} else {
				for i := range a {
					a[i] ^= t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]] ^ t4[s4[i]]
				}
			}
		}
		for ; s < w.k; s++ {
			t := &w.tabs[s]
			sv := srcs[s][base : base+cl]
			if s == 0 {
				for i := range a {
					a[i] = t[sv[i]]
				}
			} else {
				for i := range a {
					a[i] ^= t[sv[i]]
				}
			}
		}
		scatter(a, dsts, base)
	}
}

// dotChunk is the vector body of one chunk, [off, off+n): the shuffle and
// XOR kernels over its 32-byte multiple, then (last chunk only) the tail
// byte-wise.
func (w *WideTables) dotChunk(dsts, srcs [][]byte, off, n int) {
	body := n &^ 31
	if body > 0 {
		for i := range w.quads {
			q := &w.quads[i]
			d := [4][]byte{dsts[q.lanes[0]], dsts[q.lanes[1]], dsts[q.lanes[2]], dsts[q.lanes[3]]}
			dotRow4AVX2(&q.tab[0], srcs, &d, off, body)
		}
		xs := make([][]byte, 0, 16)
		for _, x := range w.xors {
			xs = xs[:0]
			for _, s := range x.srcs {
				xs = append(xs, srcs[s])
			}
			xorAVX2(xs, dsts[x.lane], off, body)
		}
	}
	for l, col := range w.cols {
		for i := off + body; i < off+n; i++ {
			var b byte
			for s, c := range col {
				b ^= w.f.mulRow(c)[srcs[s][i]]
			}
			dsts[l][i] = b
		}
	}
}

// scatter distributes the packed accumulator lanes into the destination
// slices, reading each accumulator word once. The 4- and 6-lane bodies
// are unrolled by hand — they are the RS(10,4) and Xorbas(10,6,5) hot
// paths.
func scatter(a []uint64, dsts [][]byte, base int) {
	cl := len(a)
	switch len(dsts) {
	case 4:
		d0 := dsts[0][base : base+cl]
		d1 := dsts[1][base : base+cl]
		d2 := dsts[2][base : base+cl]
		d3 := dsts[3][base : base+cl]
		for i, v := range a {
			d0[i] = byte(v)
			d1[i] = byte(v >> 8)
			d2[i] = byte(v >> 16)
			d3[i] = byte(v >> 24)
		}
	case 6:
		d0 := dsts[0][base : base+cl]
		d1 := dsts[1][base : base+cl]
		d2 := dsts[2][base : base+cl]
		d3 := dsts[3][base : base+cl]
		d4 := dsts[4][base : base+cl]
		d5 := dsts[5][base : base+cl]
		for i, v := range a {
			d0[i] = byte(v)
			d1[i] = byte(v >> 8)
			d2[i] = byte(v >> 16)
			d3[i] = byte(v >> 24)
			d4[i] = byte(v >> 32)
			d5[i] = byte(v >> 40)
		}
	default:
		for l := range dsts {
			d := dsts[l][base : base+cl]
			sh := 8 * uint(l)
			for i := range d {
				d[i] = byte(a[i] >> sh)
			}
		}
	}
}
