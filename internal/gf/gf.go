// Package gf implements arithmetic over binary extension fields GF(2^m).
//
// The paper's codes (Appendix D) are defined over an extended binary field
// F_{2^m} with a primitive element α generating the multiplicative group.
// This package provides exactly that substrate: field construction from a
// primitive polynomial, element arithmetic via log/exp tables, and the bulk
// slice operations (XOR, scalar multiply, multiply-accumulate) that the
// Reed-Solomon and LRC encoders use on block payloads.
//
// All operations are allocation-free on the hot paths. Elements are stored
// in uint16 so a single implementation covers m up to 16; the common case
// used by the (10,6,5) Xorbas code is GF(2^8).
//
// The region primitives (XORSlice, MulSlice, MulAddSlice, DotSlices,
// WideTables.Dot) have two bodies that produce identical bytes. On amd64
// with AVX2 — found at start-up by a CPUID/XGETBV stub, kernel_amd64.s —
// a GF(2^8) multiply runs a split-nibble byte-shuffle kernel and an
// all-ones combination (a local parity, a light decode) a multi-source
// XOR kernel, 32 bytes per step. On every other architecture, on amd64
// without AVX2 and under -tags purego they run pure-Go table and word
// loops, which are also the oracle the vector body is tested against.
package gf

import (
	"fmt"
	"sync"
)

// Elem is a field element. Only the low m bits are meaningful for a field
// GF(2^m); constructors and table lookups enforce the range.
type Elem = uint16

// Default primitive polynomials, indexed by m. Each value encodes the
// polynomial's coefficients with the x^m term included, e.g. for m=8 the
// value 0x11d is x^8+x^4+x^3+x^2+1 (the polynomial used by most RS
// deployments, including HDFS-RAID's GaloisField).
var defaultPrimitive = map[uint]uint32{
	2:  0x7,     // x^2+x+1
	3:  0xb,     // x^3+x+1
	4:  0x13,    // x^4+x+1
	8:  0x11d,   // x^8+x^4+x^3+x^2+1
	16: 0x1100b, // x^16+x^12+x^3+x+1
}

// Field is an immutable GF(2^m) instance with precomputed log/exp tables.
// A Field is safe for concurrent use.
type Field struct {
	m      uint   // extension degree
	size   int    // 2^m
	mask   uint32 // 2^m - 1
	exp    []Elem // exp[i] = α^i, doubled length to skip mod in Mul
	log    []int32
	inv    []Elem // multiplicative inverses, inv[0] unused
	genera Elem   // the generator α (always 2 = x)

	// mulOnce guards the lazy build of mulTab, the full 256×256 GF(2^8)
	// multiplication table the slice kernels index by coefficient. 64 KiB,
	// built at most once per Field and shared by every concurrent encoder
	// (sync.Once publishes the fully built table, so readers never see a
	// partial row).
	mulOnce sync.Once
	mulTab  *[256][256]byte
}

// mulRow returns the 256-entry multiplication row for coefficient c,
// building the field-wide cached table on first use. Only valid for m == 8.
func (f *Field) mulRow(c Elem) *[256]byte {
	f.mulOnce.Do(func() {
		tab := new([256][256]byte)
		for cc := 1; cc < 256; cc++ {
			lc := int(f.log[cc])
			row := &tab[cc]
			for a := 1; a < 256; a++ {
				row[a] = byte(f.exp[lc+int(f.log[a])])
			}
		}
		f.mulTab = tab
	})
	return &f.mulTab[c]
}

// New constructs GF(2^m) for 2 <= m <= 16 using the package's default
// primitive polynomial for that m.
func New(m uint) (*Field, error) {
	p, ok := defaultPrimitive[m]
	if !ok {
		return nil, fmt.Errorf("gf: no default primitive polynomial for m=%d", m)
	}
	return NewWithPolynomial(m, p)
}

// MustNew is New but panics on error; for package-level field singletons.
func MustNew(m uint) *Field {
	f, err := New(m)
	if err != nil {
		panic(err)
	}
	return f
}

// NewWithPolynomial constructs GF(2^m) from an explicit primitive
// polynomial. The polynomial must include the x^m term and must be
// primitive: x must generate the full multiplicative group of order 2^m-1.
func NewWithPolynomial(m uint, prim uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("gf: m=%d out of supported range [2,16]", m)
	}
	if prim>>m != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not have degree %d", prim, m)
	}
	f := &Field{
		m:      m,
		size:   1 << m,
		mask:   (1 << m) - 1,
		genera: 2,
	}
	order := f.size - 1
	f.exp = make([]Elem, 2*order)
	f.log = make([]int32, f.size)
	for i := range f.log {
		f.log[i] = -1
	}
	x := uint32(1)
	for i := 0; i < order; i++ {
		if f.log[x] != -1 {
			return nil, fmt.Errorf("gf: polynomial %#x is not primitive for m=%d (cycle at %d)", prim, m, i)
		}
		f.exp[i] = Elem(x)
		f.log[x] = int32(i)
		x <<= 1
		if x>>m != 0 {
			x ^= prim
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x is not primitive for m=%d", prim, m)
	}
	copy(f.exp[order:], f.exp[:order])
	f.inv = make([]Elem, f.size)
	for a := 1; a < f.size; a++ {
		f.inv[a] = f.exp[order-int(f.log[a])]
	}
	return f, nil
}

// M returns the extension degree m.
func (f *Field) M() uint { return f.m }

// Size returns the number of field elements 2^m.
func (f *Field) Size() int { return f.size }

// Order returns the multiplicative group order 2^m - 1.
func (f *Field) Order() int { return f.size - 1 }

// Generator returns the primitive element α used to build the tables.
func (f *Field) Generator() Elem { return f.genera }

// Add returns a+b. In characteristic 2 addition and subtraction coincide
// (the paper exploits this when it turns "−" into "+" in Eq. (2)).
func (f *Field) Add(a, b Elem) Elem { return a ^ b }

// Mul returns a·b.
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// Div returns a/b. It panics if b == 0.
func (f *Field) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(f.log[a]) - int(f.log[b])
	if d < 0 {
		d += f.Order()
	}
	return f.exp[d]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0; the
// paper's local-parity construction requires every coefficient c_i != 0
// precisely so that this inverse exists (Eq. (1)).
func (f *Field) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.inv[a]
}

// Exp returns α^i for any integer i (negative allowed).
func (f *Field) Exp(i int) Elem {
	o := f.Order()
	i %= o
	if i < 0 {
		i += o
	}
	return f.exp[i]
}

// Log returns the discrete logarithm of a base α. It panics if a == 0.
func (f *Field) Log(a Elem) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(f.log[a])
}

// Pow returns a^e for e >= 0.
func (f *Field) Pow(a Elem, e int) Elem {
	if e < 0 {
		panic("gf: negative exponent")
	}
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return f.Exp(int(f.log[a]) % f.Order() * e) // Exp reduces mod the order
}

// valid reports whether a is a valid element of this field.
func (f *Field) valid(a Elem) bool { return uint32(a) <= f.mask }
