package gf

import "encoding/binary"

// Slice operations over byte payloads. These are the hot paths of the
// encoders: every parity block is a linear combination Σ c_i·X_i of data
// blocks, computed column-wise over the block payloads. For GF(2^8) each
// payload byte is one field element; the local XOR parities of the Xorbas
// code (all c_i = 1) and every light decode reduce to plain XOR, which
// XORSlice and the all-ones DotSlices provide without any table lookups.
//
// Every region primitive has two bodies (package doc). Where useVector is
// set, every region's longest 32-byte multiple goes through an AVX2
// kernel — the shuffle kernel for a multiply, the XOR kernel for an
// all-ones combination — and only the tail through the pure-Go loops
// below; everywhere else those loops are the whole body. The multiply
// loops index a per-Field cached 256×256 table (see Field.mulRow) instead
// of rebuilding a 256-byte row per call; the XOR loops work a 64-bit word
// at a time. Neither body allocates.

// nibTab is one coefficient in the vector kernels' form: c·x =
// t[x&15] ^ t[16+x>>4], two 16-entry tables a byte shuffle can index.
type nibTab [32]byte

func (f *Field) nibbles(c Elem) (t nibTab) {
	row := f.mulRow(c)
	for i := 0; i < 16; i++ {
		t[i], t[16+i] = row[i], row[i<<4]
	}
	return t
}

// allLen reports whether every slice is n bytes long. The region
// primitives check it before they write: the vector kernels trust it.
func allLen(slices [][]byte, n int) bool {
	for _, s := range slices {
		if len(s) != n {
			return false
		}
	}
	return true
}

// dotVector runs the vector body of dst (^)= Σ coeffs[j]·srcs[j] over the
// longest prefix it covers and returns that prefix's length, 0 on the
// portable path; the caller finishes the rest. Lengths are already
// checked.
func (f *Field) dotVector(coeffs []Elem, dst []byte, srcs [][]byte, acc bool) int {
	n := len(dst) &^ 31
	if !useVector || n == 0 {
		return 0
	}
	tabs := make([]nibTab, 0, 16)
	for _, c := range coeffs {
		tabs = append(tabs, f.nibbles(c))
	}
	dotRowAVX2(&tabs[0], srcs, dst, 0, n, acc)
	return n
}

// xorVector is dotVector for an all-ones combination: dst = ⊕ srcs over
// the longest 32-byte multiple, through the XOR kernel. len(srcs) ≥ 1.
func xorVector(dst []byte, srcs [][]byte) int {
	n := len(dst) &^ 31
	if !useVector || n == 0 {
		return 0
	}
	xorAVX2(srcs, dst, 0, n)
	return n
}

// XORSlice sets dst[i] ^= src[i] for all i. dst and src must have equal
// length and may alias only if identical. This is the entire arithmetic of
// the Xorbas local parities (coefficients c_i = 1, Section 2.1).
func XORSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: XORSlice length mismatch")
	}
	done := xorVector(dst, [][]byte{dst, src})
	dst, src = dst[done:], src[done:]
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// MulSlice sets dst[i] = c·src[i]. Valid for GF(2^8) fields only (payload
// bytes are field elements). dst and src must have equal length and may
// alias.
func (f *Field) MulSlice(c Elem, dst, src []byte) {
	if f.m != 8 {
		panic("gf: MulSlice requires GF(2^8)")
	}
	if len(dst) != len(src) {
		panic("gf: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, src)
		return
	}
	done := f.dotVector([]Elem{c}, dst, [][]byte{src}, false)
	dst, src = dst[done:], src[done:]
	t := f.mulRow(c)
	dst = dst[:len(src)] // bounds-check hint: one len, checked once
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = t[src[i]]
		dst[i+1] = t[src[i+1]]
		dst[i+2] = t[src[i+2]]
		dst[i+3] = t[src[i+3]]
	}
	for i := n; i < len(src); i++ {
		dst[i] = t[src[i]]
	}
}

// MulAddSlice sets dst[i] ^= c·src[i]: a fused multiply-accumulate, the
// inner loop of every matrix-vector encode. Valid for GF(2^8) only.
func (f *Field) MulAddSlice(c Elem, dst, src []byte) {
	if f.m != 8 {
		panic("gf: MulAddSlice requires GF(2^8)")
	}
	if len(dst) != len(src) {
		panic("gf: MulAddSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		XORSlice(dst, src)
		return
	}
	done := f.dotVector([]Elem{c}, dst, [][]byte{src}, true)
	dst, src = dst[done:], src[done:]
	t := f.mulRow(c)
	dst = dst[:len(src)]
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		// 4-way unroll: the four table loads are independent, hiding the
		// lookup latency the serial byte loop exposes.
		dst[i] ^= t[src[i]]
		dst[i+1] ^= t[src[i+1]]
		dst[i+2] ^= t[src[i+2]]
		dst[i+3] ^= t[src[i+3]]
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}

// DotSlices computes dst = Σ coeffs[j]·srcs[j] over GF(2^8), overwriting
// dst. All srcs and dst must share one length. The first contribution
// overwrites dst directly (no zeroing pass). Two dispatch tiers keep the
// encode hot loop fast: an all-ones coefficient vector (the Xorbas local
// parities, every light decode) collapses to a multi-source XOR, and general
// coefficients take the vector kernel (every source of a position in one
// pass) or, on the portable path, a pairwise-fused table kernel that
// touches dst once per two sources instead of once per source.
func (f *Field) DotSlices(coeffs []Elem, dst []byte, srcs [][]byte) {
	if len(coeffs) != len(srcs) {
		panic("gf: DotSlices coefficient/source count mismatch")
	}
	if !allLen(srcs, len(dst)) {
		panic("gf: DotSlices length mismatch")
	}
	// Compact away zero coefficients.
	nzc := make([]Elem, 0, 16)
	nzs := make([][]byte, 0, 16)
	ones := true
	for j, c := range coeffs {
		if c == 0 {
			continue
		}
		if c != 1 {
			ones = false
		}
		nzc = append(nzc, c)
		nzs = append(nzs, srcs[j])
	}
	switch {
	case len(nzc) == 0:
		for i := range dst {
			dst[i] = 0
		}
	case len(nzc) == 1:
		f.MulSlice(nzc[0], dst, nzs[0])
	case ones:
		xorIntoSlices(dst, nzs)
	default:
		done := f.dotVector(nzc, dst, nzs, false)
		dst = dst[done:]
		for j := range nzs {
			nzs[j] = nzs[j][done:]
		}
		f.MulSlice(nzc[0], dst, nzs[0])
		j := 1
		for ; j+1 < len(nzc); j += 2 {
			f.mulAdd2(nzc[j], nzc[j+1], dst, nzs[j], nzs[j+1])
		}
		if j < len(nzc) {
			f.MulAddSlice(nzc[j], dst, nzs[j])
		}
	}
}

// mulAdd2 sets dst[i] ^= c1·a[i] ^ c2·b[i]: two fused multiply-
// accumulates in one pass, so dst is loaded and stored once per pair of
// sources. c1, c2 must be ≥ 2 (callers route 0/1 elsewhere).
func (f *Field) mulAdd2(c1, c2 Elem, dst, a, b []byte) {
	t1, t2 := f.mulRow(c1), f.mulRow(c2)
	n := len(dst) &^ 1
	for i := 0; i < n; i += 2 {
		dst[i] ^= t1[a[i]] ^ t2[b[i]]
		dst[i+1] ^= t1[a[i+1]] ^ t2[b[i+1]]
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= t1[a[i]] ^ t2[b[i]]
	}
}

// xorIntoSlices sets dst = srcs[0] ^ srcs[1] ^ …, overwriting dst: the
// whole arithmetic of a local parity column and of a light decode, with
// dst written once for the entire group instead of once per member. The
// vector body XORs every source of 32 bytes in one kernel step, whatever
// the arity, and leaves a tail of under 32 bytes to a byte loop. The
// portable body works word-wise: arities up to five — the Xorbas light
// recipe reads exactly five blocks, the decode hot path — get fixed-shape
// kernels whose slice bases stay in registers; wider sets peel five
// sources at a time.
func xorIntoSlices(dst []byte, srcs [][]byte) {
	if len(srcs) == 1 {
		copy(dst, srcs[0])
		return
	}
	if done := xorVector(dst, srcs); done > 0 {
		for i := done; i < len(dst); i++ {
			b := srcs[0][i]
			for _, s := range srcs[1:] {
				b ^= s[i]
			}
			dst[i] = b
		}
		return
	}
	switch len(srcs) {
	case 2:
		xor2(dst, srcs[0], srcs[1])
	case 3:
		xor3(dst, srcs[0], srcs[1], srcs[2])
	case 4:
		xor4(dst, srcs[0], srcs[1], srcs[2], srcs[3])
	case 5:
		xor5(dst, srcs[0], srcs[1], srcs[2], srcs[3], srcs[4])
	default:
		xor5(dst, srcs[0], srcs[1], srcs[2], srcs[3], srcs[4])
		rest := srcs[5:]
		for len(rest) >= 5 {
			xor5in(dst, rest[0], rest[1], rest[2], rest[3], rest[4])
			rest = rest[5:]
		}
		for _, s := range rest {
			XORSlice(dst, s)
		}
	}
}

// xor2..xor5 overwrite dst with the word-wise XOR of their sources; the
// fixed arity lets the compiler hoist every bounds check out of the loop.
func xor2(dst, a, b []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

func xor3(dst, a, b, c []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i] ^ c[i]
	}
}

func xor4(dst, a, b, c, d []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:])^binary.LittleEndian.Uint64(d[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i] ^ c[i] ^ d[i]
	}
}

func xor5(dst, a, b, c, d, e []byte) {
	// Two words per iteration: the ten loads are independent, and halving
	// the loop overhead matters — this is the busiest kernel of a light
	// repair (five sources, one pass). Equal-length reslicing lets the
	// compiler drop the per-load bounds checks.
	a, b, c, d, e = a[:len(dst)], b[:len(dst)], c[:len(dst)], d[:len(dst)], e[:len(dst)]
	n := len(dst) &^ 15
	for i := 0; i < n; i += 16 {
		w0 := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]) ^
			binary.LittleEndian.Uint64(c[i:]) ^ binary.LittleEndian.Uint64(d[i:]) ^
			binary.LittleEndian.Uint64(e[i:])
		w1 := binary.LittleEndian.Uint64(a[i+8:]) ^ binary.LittleEndian.Uint64(b[i+8:]) ^
			binary.LittleEndian.Uint64(c[i+8:]) ^ binary.LittleEndian.Uint64(d[i+8:]) ^
			binary.LittleEndian.Uint64(e[i+8:])
		binary.LittleEndian.PutUint64(dst[i:], w0)
		binary.LittleEndian.PutUint64(dst[i+8:], w1)
	}
	for i := n; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i] ^ c[i] ^ d[i] ^ e[i]
	}
}

// xor5in accumulates five more sources into dst (dst ^= a^b^c^d^e).
func xor5in(dst, a, b, c, d, e []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^
				binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:])^binary.LittleEndian.Uint64(d[i:])^
				binary.LittleEndian.Uint64(e[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i] ^ d[i] ^ e[i]
	}
}
