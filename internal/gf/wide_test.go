package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// wideColumnSets are column groups that reach every way the vector body
// sorts its lanes — XOR rows, a four-row group, leftover single rows, an
// all-zero column, zeros and ones inside dense columns — over k sources.
func wideColumnSets(rng *rand.Rand, k int) [][][]Elem {
	ones := make([]Elem, k)
	half := make([]Elem, k)
	for s := range ones {
		ones[s] = 1
		half[s] = Elem(s & 1)
	}
	dense := func(n int) [][]Elem {
		cols := make([][]Elem, n)
		for l := range cols {
			cols[l] = mixedCoeffs(rng, k)
		}
		return cols
	}
	return [][][]Elem{
		dense(1),
		dense(4),
		dense(5),
		dense(8),
		append(dense(4), ones, half), // the Xorbas shape
		{ones, mixedCoeffs(rng, k), make([]Elem, k)}, // XOR row first, all-zero column last
		append([][]Elem{half}, dense(7)...),
	}
}

// TestWideTablesMatchNaive pins WideTables.Dot, on both bodies, to the
// scalar reference over whole slices and over byte windows that start
// and end anywhere, and checks nothing outside the window is written.
func TestWideTablesMatchNaive(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		rng := rand.New(rand.NewSource(110))
		for _, k := range []int{1, 2, 5, 10, 14} {
			for _, cols := range wideColumnSets(rng, k) {
				w := f.NewWideTables(cols)
				if (w.tabs == nil) != useVector {
					t.Fatalf("vector=%v but packed tables built=%v", useVector, w.tabs != nil)
				}
				for _, n := range kernelLens {
					srcs := make([][]byte, k)
					for s := range srcs {
						srcs[s] = make([]byte, n)
						rng.Read(srcs[s])
					}
					windows := [][2]int{{0, n}}
					if n > 0 {
						a, b := rng.Intn(n+1), rng.Intn(n+1)
						windows = append(windows, [2]int{min(a, b), max(a, b)}, [2]int{n / 2, n / 2})
					}
					for _, win := range windows {
						from, to := win[0], win[1]
						dsts := make([][]byte, len(cols))
						before := make([][]byte, len(cols))
						for l := range dsts {
							dsts[l] = make([]byte, n)
							rng.Read(dsts[l]) // dirty: Dot must overwrite
							before[l] = append([]byte(nil), dsts[l]...)
						}
						w.Dot(dsts, srcs, from, to)
						for l, col := range cols {
							for i := from; i < to; i++ {
								if dsts[l][i] != naiveDot(f, col, srcs, i) {
									t.Fatalf("k=%d lanes=%d n=%d window [%d,%d): lane %d diverges at byte %d",
										k, len(cols), n, from, to, l, i)
								}
							}
							if !bytes.Equal(dsts[l][:from], before[l][:from]) || !bytes.Equal(dsts[l][to:], before[l][to:]) {
								t.Fatalf("k=%d lanes=%d n=%d window [%d,%d): lane %d written outside the window",
									k, len(cols), n, from, to, l)
							}
						}
					}
				}
			}
		}
	})
}

// TestWideTablesLargeBlock covers a hundred-odd chunks of the chunk loop
// with an unaligned window (TestGoldenParities covers whole 1 MiB blocks).
func TestWideTablesLargeBlock(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		rng := rand.New(rand.NewSource(111))
		const k, n, from, to = 10, 1 << 17, 4097, 1<<17 - 13
		cols := wideColumnSets(rng, k)[4]
		srcs := make([][]byte, k)
		for s := range srcs {
			srcs[s] = make([]byte, n)
			rng.Read(srcs[s])
		}
		dsts := make([][]byte, len(cols))
		for l := range dsts {
			dsts[l] = make([]byte, n)
		}
		f.NewWideTables(cols).Dot(dsts, srcs, from, to)
		for l, col := range cols {
			for i := 0; i < n; i++ {
				want := byte(0)
				if i >= from && i < to {
					want = naiveDot(f, col, srcs, i)
				}
				if dsts[l][i] != want {
					t.Fatalf("lane %d byte %d: got %#x want %#x", l, i, dsts[l][i], want)
				}
			}
		}
	})
}
