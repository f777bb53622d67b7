package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// detected is what this build and CPU give useVector, read before any
// test overrides it.
var detected = useVector

// bodies lists the bodies of the region primitives that can run here:
// the portable one always, the vector one where detection found it.
func bodies() []bool {
	if detected {
		return []bool{false, true}
	}
	return []bool{false}
}

// setBody selects a body until the test (or subtest) ends.
func setBody(t testing.TB, vector bool) {
	prev := useVector
	useVector = vector
	t.Cleanup(func() { useVector = prev })
}

// eachBody runs a property once per body, so every kernel property below
// pins the vector body to the same naive reference as the portable one.
func eachBody(t *testing.T, fn func(t *testing.T)) {
	for _, vector := range bodies() {
		name := "portable"
		if vector {
			name = "vector"
		}
		t.Run(name, func(t *testing.T) {
			setBody(t, vector)
			fn(t)
		})
	}
}

// kernelLens exercises every word/tail split the fast kernels have: empty,
// sub-word, exact words, words plus each possible byte tail, the vector
// kernel's 32-byte steps with and without tails, and lengths large enough
// to cover the unrolled bodies many times over.
var kernelLens = []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 95, 255, 256, 257, 1023, 4096 + 17}

// aligned returns n bytes starting on a 32-byte boundary, so that an
// offset into them is an offset off the vector kernel's natural alignment.
func aligned(n int) []byte {
	raw := make([]byte, n+32)
	skip := -int(uintptr(unsafe.Pointer(&raw[0]))) & 31
	return raw[skip : skip+n]
}

// naiveDot is the scalar reference of every multi-source primitive:
// Σ coeffs[j]·srcs[j][i] through Field.Mul.
func naiveDot(f *Field, coeffs []Elem, srcs [][]byte, i int) byte {
	var acc Elem
	for j, c := range coeffs {
		acc ^= f.Mul(c, Elem(srcs[j][i]))
	}
	return byte(acc)
}

// xorArities are the all-ones source counts the allocation and guard-page
// tests run: a plain pair, the Xorbas light recipe, and a heavy decode
// wider than the portable body's five-source kernels.
var xorArities = []int{2, 5, 13}

// onesCoeffs returns k coefficients that are all 1: an all-ones
// combination, which DotSlices sends to the XOR kernels.
func onesCoeffs(k int) []Elem {
	c := make([]Elem, k)
	for j := range c {
		c[j] = 1
	}
	return c
}

// mixedCoeffs draws k coefficients with zeros and ones mixed into dense
// values, at least one of them dense.
func mixedCoeffs(rng *rand.Rand, k int) []Elem {
	coeffs := make([]Elem, k)
	for j := range coeffs {
		switch rng.Intn(4) {
		case 0:
			coeffs[j] = Elem(rng.Intn(2))
		default:
			coeffs[j] = Elem(2 + rng.Intn(254))
		}
	}
	coeffs[rng.Intn(k)] = Elem(2 + rng.Intn(254))
	return coeffs
}

// naiveMulAdd is the scalar reference implementation: dst[i] ^= c·src[i]
// one element at a time through Field.Mul, no tables, no words.
func naiveMulAdd(f *Field, c Elem, dst, src []byte) {
	for i := range src {
		dst[i] ^= byte(f.Mul(c, Elem(src[i])))
	}
}

// TestMulKernelsMatchNaiveAllCoefficients pins the cached-table kernels
// byte-identical to the naive scalar reference for every one of the 256
// coefficients, across odd/tail lengths.
func TestMulKernelsMatchNaiveAllCoefficients(t *testing.T) {
	eachBody(t, testMulKernelsMatchNaiveAllCoefficients)
}

func testMulKernelsMatchNaiveAllCoefficients(t *testing.T) {
	f := MustNew(8)
	rng := rand.New(rand.NewSource(99))
	for c := 0; c < 256; c++ {
		for _, n := range kernelLens {
			src := make([]byte, n)
			base := make([]byte, n)
			rng.Read(src)
			rng.Read(base)

			wantMul := make([]byte, n)
			for i := range src {
				wantMul[i] = byte(f.Mul(Elem(c), Elem(src[i])))
			}
			gotMul := make([]byte, n)
			f.MulSlice(Elem(c), gotMul, src)
			if !bytes.Equal(gotMul, wantMul) {
				t.Fatalf("MulSlice(c=%d, n=%d) diverges from naive reference", c, n)
			}

			wantAdd := append([]byte(nil), base...)
			naiveMulAdd(f, Elem(c), wantAdd, src)
			gotAdd := append([]byte(nil), base...)
			f.MulAddSlice(Elem(c), gotAdd, src)
			if !bytes.Equal(gotAdd, wantAdd) {
				t.Fatalf("MulAddSlice(c=%d, n=%d) diverges from naive reference", c, n)
			}
		}
	}
}

// TestXORSliceMatchesNaive covers the vector steps, the word loop and
// every tail length, with source and destination each starting off the
// 32-byte boundary.
func TestXORSliceMatchesNaive(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(100))
		for _, n := range kernelLens {
			for _, o := range []int{0, 1, 7, 31} {
				dst := aligned(o + n)[o:]
				src := aligned(3*o + n)[3*o:]
				rng.Read(dst)
				rng.Read(src)
				want := make([]byte, n)
				for i := range dst {
					want[i] = dst[i] ^ src[i]
				}
				XORSlice(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("XORSlice(n=%d, dst+%d, src+%d) diverges from naive reference", n, o, 3*o%32)
				}
			}
		}
	})
}

// TestMulSliceAliased pins dst==src aliasing: MulSlice documents that dst
// and src may be the same slice (the in-place scaling the decoders use).
func TestMulSliceAliased(t *testing.T) {
	eachBody(t, testMulSliceAliased)
}

func testMulSliceAliased(t *testing.T) {
	f := MustNew(8)
	rng := rand.New(rand.NewSource(101))
	for c := 0; c < 256; c++ {
		for _, n := range []int{1, 7, 8, 32, 33, 64, 95, 257} {
			buf := make([]byte, n)
			rng.Read(buf)
			want := make([]byte, n)
			for i := range buf {
				want[i] = byte(f.Mul(Elem(c), Elem(buf[i])))
			}
			f.MulSlice(Elem(c), buf, buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("aliased MulSlice(c=%d, n=%d) diverges", c, n)
			}
		}
	}
}

// TestXORSliceAliasedSelfZeroes: x ^= x must zero the slice (identical
// aliasing is the only aliasing XORSlice admits), on every body and
// length: the vector kernel reads dst and src before it writes either.
func TestXORSliceAliasedSelfZeroes(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(104))
		for _, n := range kernelLens {
			buf := aligned(n + 5)[5:]
			rng.Read(buf)
			XORSlice(buf, buf)
			for i, b := range buf {
				if b != 0 {
					t.Fatalf("n=%d: buf[%d] = %d after self-XOR", n, i, b)
				}
			}
		}
	})
}

// TestDotSlicesNoNonzeroCoefficients: an all-zero coefficient vector must
// still overwrite dst with zeros (DotSlices overwrites, never accumulates).
func TestDotSlicesNoNonzeroCoefficients(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		dst := bytes.Repeat([]byte{9}, 40)
		f.DotSlices([]Elem{0, 0}, dst, [][]byte{make([]byte, 40), bytes.Repeat([]byte{5}, 40)})
		for i, b := range dst {
			if b != 0 {
				t.Fatalf("dst[%d] = %d, want 0", i, b)
			}
		}
	})
}

// TestMulRowConcurrentFirstUse races many goroutines into the lazy table
// build; under -race this pins the sync.Once publication.
func TestMulRowConcurrentFirstUse(t *testing.T) {
	f := MustNew(8)
	src := make([]byte, 512)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, len(src))
			c := Elem(g*31 + 2)
			f.MulAddSlice(c, dst, src)
			want := make([]byte, len(src))
			naiveMulAdd(f, c, want, src)
			if !bytes.Equal(dst, want) {
				t.Errorf("concurrent MulAddSlice(c=%d) diverges", c)
			}
		}()
	}
	wg.Wait()
}

// TestDotSlicesMatchesNaive drives every dispatch tier (all-zero, single
// source, all-ones XOR, mixed pairwise-fused, odd source counts) against
// the scalar reference on odd/tail lengths.
func TestDotSlicesMatchesNaive(t *testing.T) {
	eachBody(t, testDotSlicesMatchesNaive)
}

func testDotSlicesMatchesNaive(t *testing.T) {
	f := MustNew(8)
	rng := rand.New(rand.NewSource(103))
	cases := [][]Elem{
		{0, 0, 0},
		{7},
		{1, 1},
		{1, 1, 1, 1, 1},
		{2, 3},
		{2, 3, 4},
		{2, 3, 4, 5},
		{0, 9, 1, 0, 200, 17},
		{1, 0, 1, 1},
		{255, 254, 253, 3, 2, 1, 7, 9, 11, 13},
	}
	for _, k := range []int{1, 2, 5, 10, 14} {
		cases = append(cases, mixedCoeffs(rng, k), mixedCoeffs(rng, k))
	}
	for _, coeffs := range cases {
		for _, n := range kernelLens {
			srcs := make([][]byte, len(coeffs))
			for j := range srcs {
				srcs[j] = make([]byte, n)
				rng.Read(srcs[j])
			}
			want := make([]byte, n)
			for i := range want {
				want[i] = naiveDot(f, coeffs, srcs, i)
			}
			dst := make([]byte, n)
			rng.Read(dst) // dirty: DotSlices must overwrite
			f.DotSlices(coeffs, dst, srcs)
			if !bytes.Equal(dst, want) {
				t.Fatalf("DotSlices(coeffs=%v, n=%d) diverges from naive reference", coeffs, n)
			}
		}
	}
}

// TestXORIntoSlicesAllArities pins the all-ones DotSlices byte-identical
// to a naive reference for 1..16 sources across every vector-step and
// word/tail length split, each source and the destination starting at
// its own offset off the 32-byte boundary. Portable body: the fixed-arity
// xor2..xor5 kernels and the wide-arity peeling fallback (xor5 + xor5in +
// XORSlice tail); arity ≥ 6 is reachable from an all-ones heavy-decode
// vector, and only this path runs xor5in. Vector body: the XOR kernel's
// four-register and one-register steps, then the byte tail.
func TestXORIntoSlicesAllArities(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		rng := rand.New(rand.NewSource(107))
		for arity := 1; arity <= 16; arity++ {
			coeffs := onesCoeffs(arity)
			for _, n := range kernelLens {
				srcs := make([][]byte, arity)
				for j := range srcs {
					o := (5 * j) % 32
					srcs[j] = aligned(o + n)[o:]
					rng.Read(srcs[j])
				}
				want := make([]byte, n)
				for _, s := range srcs {
					for i := range want {
						want[i] ^= s[i]
					}
				}
				got := aligned(arity + n)[arity:]
				rng.Read(got) // stale contents must be overwritten
				f.DotSlices(coeffs, got, srcs)
				if !bytes.Equal(got, want) {
					t.Fatalf("arity %d len %d: all-ones DotSlices mismatch", arity, n)
				}
			}
		}
	})
}

// TestMulKernelsLargeBlock runs the primitives over a whole 1 MiB block,
// the store's block size, plus a tail: thousands of kernel steps per call.
func TestMulKernelsLargeBlock(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		rng := rand.New(rand.NewSource(108))
		const n = 1<<20 + 5
		coeffs := []Elem{2, 0x1d, 0x8e, 0xff, 1, 0, 77, 140, 3, 200}
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = make([]byte, n)
			rng.Read(srcs[j])
		}
		dot := make([]byte, n)
		f.DotSlices(coeffs, dot, srcs)
		mul := make([]byte, n)
		f.MulSlice(coeffs[1], mul, srcs[1])
		add := append([]byte(nil), srcs[0]...)
		f.MulAddSlice(coeffs[2], add, srcs[2])
		for i := 0; i < n; i++ {
			if dot[i] != naiveDot(f, coeffs, srcs, i) {
				t.Fatalf("DotSlices diverges at byte %d", i)
			}
			if mul[i] != byte(f.Mul(coeffs[1], Elem(srcs[1][i]))) {
				t.Fatalf("MulSlice diverges at byte %d", i)
			}
			if add[i] != srcs[0][i]^byte(f.Mul(coeffs[2], Elem(srcs[2][i]))) {
				t.Fatalf("MulAddSlice diverges at byte %d", i)
			}
		}
	})
}

// TestMulKernelsUnalignedOffsets starts the sources and the destination
// at every offset 0–31 off a 32-byte boundary (the kernels use unaligned
// loads and stores) and checks that no byte outside dst is written.
func TestMulKernelsUnalignedOffsets(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		rng := rand.New(rand.NewSource(109))
		const n = 100 // three kernel steps and a four-byte tail
		coeffs := []Elem{0x53, 1, 0xca}
		for so := 0; so < 32; so++ {
			for do := 0; do < 32; do++ {
				srcs := make([][]byte, len(coeffs))
				for j := range srcs {
					srcs[j] = aligned(so + n)[so:]
					rng.Read(srcs[j])
				}
				frame := aligned(do + n + 32)
				rng.Read(frame)
				before := append([]byte(nil), frame...)
				dst := frame[do : do+n]

				check := func(op string, want func(i int) byte) {
					t.Helper()
					for i := range dst {
						if dst[i] != want(i) {
							t.Fatalf("%s src+%d dst+%d diverges at byte %d", op, so, do, i)
						}
					}
					if !bytes.Equal(frame[:do], before[:do]) || !bytes.Equal(frame[do+n:], before[do+n:]) {
						t.Fatalf("%s src+%d dst+%d wrote outside dst", op, so, do)
					}
				}
				f.MulAddSlice(coeffs[0], dst, srcs[0])
				check("MulAddSlice", func(i int) byte {
					return before[do+i] ^ byte(f.Mul(coeffs[0], Elem(srcs[0][i])))
				})
				f.MulSlice(coeffs[2], dst, srcs[2])
				check("MulSlice", func(i int) byte { return byte(f.Mul(coeffs[2], Elem(srcs[2][i]))) })
				f.DotSlices(coeffs, dst, srcs)
				check("DotSlices", func(i int) byte { return naiveDot(f, coeffs, srcs, i) })
			}
		}
	})
}

// mustPanic runs fn and fails unless it panics with a message holding want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

// TestRegionPrimitivesValidateBeforeWriting: a slice of the wrong length
// anywhere in a call panics before the first byte of any destination is
// written — under the vector body the same mistake would otherwise be an
// out-of-bounds access instead of a panic.
func TestRegionPrimitivesValidateBeforeWriting(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		const n = 4096
		src := func(n int) []byte { return bytes.Repeat([]byte{0xa5}, n) }
		dst := src(n)
		untouched := func() {
			t.Helper()
			if !bytes.Equal(dst, src(n)) {
				t.Fatal("dst written before the length check")
			}
		}
		mustPanic(t, "length mismatch", func() { f.MulSlice(7, dst, src(n-1)) })
		untouched()
		mustPanic(t, "length mismatch", func() { f.MulAddSlice(7, dst, src(n+1)) })
		untouched()
		// The short source is the last one: every earlier source is fine.
		mustPanic(t, "length mismatch", func() {
			f.DotSlices([]Elem{2, 3, 4}, dst, [][]byte{src(n), src(n), src(n - 32)})
		})
		untouched()
		mustPanic(t, "length mismatch", func() {
			f.DotSlices([]Elem{2, 0}, dst, [][]byte{src(n), src(n - 1)})
		})
		untouched()

		w := f.NewWideTables([][]Elem{{2, 3, 4}, {1, 1, 0}})
		dst2 := src(n)
		mustPanic(t, "length mismatch", func() {
			w.Dot([][]byte{dst, dst2}, [][]byte{src(n), src(n), src(n - 1)}, 0, n)
		})
		mustPanic(t, "length mismatch", func() {
			w.Dot([][]byte{dst, dst2[:n-1]}, [][]byte{src(n), src(n), src(n)}, 0, n-1)
		})
		mustPanic(t, "window out of range", func() {
			w.Dot([][]byte{dst, dst2}, [][]byte{src(n), src(n), src(n)}, 64, n+1)
		})
		mustPanic(t, "window out of range", func() {
			w.Dot([][]byte{dst, dst2}, [][]byte{src(n), src(n), src(n)}, -32, n)
		})
		untouched()
		if !bytes.Equal(dst2, src(n)) {
			t.Fatal("second destination written before the length check")
		}
	})
}

// TestRegionPrimitivesDoNotAllocate: neither body allocates per call, up
// to the sixteen sources the stack-held tables cover.
func TestRegionPrimitivesDoNotAllocate(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		f := MustNew(8)
		rng := rand.New(rand.NewSource(113))
		coeffs := mixedCoeffs(rng, 14)
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = make([]byte, 4096+5)
		}
		dst := make([]byte, 4096+5)
		w := f.NewWideTables(wideColumnSets(rng, len(coeffs))[4])
		dsts := make([][]byte, w.Lanes())
		for l := range dsts {
			dsts[l] = make([]byte, len(dst))
		}
		ones := onesCoeffs(13)
		if n := testing.AllocsPerRun(10, func() {
			f.MulSlice(coeffs[0], dst, srcs[0])
			f.MulAddSlice(coeffs[0], dst, srcs[0])
			f.DotSlices(coeffs, dst, srcs)
			XORSlice(dst, srcs[1])
			for _, arity := range xorArities {
				f.DotSlices(ones[:arity], dst, srcs[:arity])
			}
			w.Dot(dsts, srcs, 3, 4096)
		}); n != 0 {
			t.Fatalf("%v allocations per round of calls, want 0", n)
		}
	})
}
