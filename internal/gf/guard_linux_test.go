//go:build linux

package gf

import (
	"math/rand"
	"syscall"
	"testing"
)

// guarded returns n bytes that end exactly where an inaccessible page
// begins: one byte read or written past them is a fault, not a value.
func guarded(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	if n > page {
		t.Fatalf("guarded: %d bytes do not fit a page", n)
	}
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory, nothing to report
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[page-n : page : page]
}

// TestKernelsStayInsideTheirSlices runs every region primitive on slices
// that all end at a guard page, for lengths with and without a tail: the
// kernels never touch a byte past off+n, even with an unaligned start.
func TestKernelsStayInsideTheirSlices(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		rng := rand.New(rand.NewSource(112))
		cols := wideColumnSets(rng, 5)[4]
		cols = append(cols, mixedCoeffs(rng, 5))
		w := f.NewWideTables(cols)
		ones := onesCoeffs(13)
		for _, n := range []int{1, 31, 32, 33, 64, 95, 1024, 1024 + 17, 4096} {
			srcs := make([][]byte, 13)
			for s := range srcs {
				srcs[s] = guarded(t, n)
				rng.Read(srcs[s])
			}
			dsts := make([][]byte, len(cols))
			for l := range dsts {
				dsts[l] = guarded(t, n)
			}
			w.Dot(dsts, srcs[:5], 0, n)
			w.Dot(dsts, srcs[:5], n/3, n)
			f.DotSlices(cols[0], dsts[0], srcs[:5])
			f.MulAddSlice(0x35, dsts[1], srcs[1])
			f.MulSlice(0x36, dsts[2], srcs[2])
			f.MulSlice(0x37, dsts[3], dsts[3])
			for i := 0; i < n; i++ {
				if dsts[0][i] != naiveDot(f, cols[0], srcs, i) {
					t.Fatalf("n=%d: DotSlices diverges at byte %d", n, i)
				}
			}
			before := append([]byte(nil), dsts[4]...)
			XORSlice(dsts[4], srcs[4])
			for i := range before {
				if dsts[4][i] != before[i]^srcs[4][i] {
					t.Fatalf("n=%d: XORSlice diverges at byte %d", n, i)
				}
			}
			for _, arity := range xorArities {
				f.DotSlices(ones[:arity], dsts[5], srcs[:arity])
				for i := 0; i < n; i++ {
					if dsts[5][i] != naiveDot(f, ones[:arity], srcs, i) {
						t.Fatalf("n=%d arity %d: all-ones DotSlices diverges at byte %d", n, arity, i)
					}
				}
			}
		}
	})
}
