//go:build amd64 && !purego

package gf

// useVector selects the AVX2 body of the region primitives; tests
// override it to run every property on both bodies.
var useVector = detectAVX2()

// detectAVX2 reports whether the CPU and the OS support AVX2.
func detectAVX2() bool

// dotRowAVX2 sets dst[off:off+n] (^)= Σ_j tab[j]·srcs[j][off:off+n], tab
// holding len(srcs) tables; acc selects accumulate over overwrite. n must
// be a positive multiple of 32 with off+n inside dst and every source.
//
//go:noescape
func dotRowAVX2(tab *nibTab, srcs [][]byte, dst []byte, off, n int, acc bool)

// dotRow4AVX2 is dotRowAVX2 for four rows sharing their sources:
// dsts[r][off:off+n] = Σ_j tab[j][r]·srcs[j][off:off+n].
//
//go:noescape
func dotRow4AVX2(tab *[4]nibTab, srcs [][]byte, dsts *[4][]byte, off, n int)

// xorAVX2 sets dst[off:off+n] = ⊕_j srcs[j][off:off+n], the all-ones
// combination with no tables. len(srcs) must be at least 1 and n a
// positive multiple of 32 with off+n inside dst and every source; dst may
// be one of the sources.
//
//go:noescape
func xorAVX2(srcs [][]byte, dst []byte, off, n int)
