// Package rs constructs the systematic (k, n−k) Reed-Solomon code the
// paper's LRCs are layered on, and holds its encoder and a reference
// decoder. It is no longer a storage scheme of its own: the program runs
// RS(10,4) as repro/internal/lrc's GroupSize-0 code, and repair planning
// (which blocks to read, light or heavy) lives there, once, for both
// codes. What stays here:
//
//   - the Appendix D construction (New), which lrc uses as its precode;
//   - Encode / EncodeInto over that generator;
//   - ReconstructColsInto, an independent any-k-columns MDS decoder. The
//     benchmark ladder times it as the RS rung, and lrc's equivalence test
//     uses it as the reference the shared engine must agree with.
//
// Following Appendix D, the code is defined by the (n−k)×n Vandermonde
// parity-check matrix [H]_{i,j} = α^{(i−1)(j−1)} over GF(2^m). The
// generator G is a basis of the null space of H (so G·Hᵀ = 0) and is then
// systematized by the row transformation A = (G restricted to the data
// columns)⁻¹, exactly as the paper converts G_LRC to systematic form. The
// resulting code is MDS with minimum distance n−k+1: any k of the n coded
// blocks reconstruct the file, and no fewer can (Lemma 1 territory).
//
// A crucial structural property preserved here: the all-ones vector is the
// first row of H, hence Σ_j g_j = 0 over the generator columns. This is
// the "interference alignment" fact that makes the Xorbas implied parity
// S3 = S1 + S2 work with pure XOR coefficients (Theorem 5).
package rs

import (
	"fmt"
	"sync"

	"repro/internal/gf"
	"repro/internal/matrix"
)

// Code is an immutable systematic Reed-Solomon code. Safe for concurrent
// use: encoding and decoding do not mutate the Code.
type Code struct {
	f   *gf.Field
	k   int            // data blocks per stripe
	n   int            // total coded blocks per stripe
	gen *matrix.Matrix // k×n systematic generator, first k columns = I
	// parityCols[j-k] is generator column j flattened, so the encode hot
	// loop iterates a slice instead of calling gen.At per coefficient.
	parityCols [][]gf.Elem
	// wide holds the lane-packed encode tables: each set computes up to
	// 8 parity columns in one pass over the data. Built lazily on the
	// first encode so analysis-only constructions stay cheap; sync.Once
	// publishes the tables to concurrent encoders.
	wideOnce sync.Once
	wide     []*gf.WideTables
	// invCache memoizes the decode inverse per surviving-column set:
	// draining a dead node solves the same erasure pattern for thousands
	// of stripes, so the O(k³) inversion happens once per pattern. Keys
	// are 256-bit column bitsets; the distinct patterns seen by a real
	// repair run number in the dozens, so the map never grows large.
	invCache sync.Map // colKey -> *matrix.Matrix
}

// colKey is a bitset over the code's ≤256 column indices.
type colKey [4]uint64

func keyOf(cols []int) colKey {
	var k colKey
	for _, c := range cols {
		k[c>>6] |= 1 << (uint(c) & 63)
	}
	return k
}

// wideTables returns the lane-packed encode tables, building them on
// first use.
func (c *Code) wideTables() []*gf.WideTables {
	c.wideOnce.Do(func() {
		for lo := 0; lo < len(c.parityCols); lo += gf.WideLanes {
			hi := lo + gf.WideLanes
			if hi > len(c.parityCols) {
				hi = len(c.parityCols)
			}
			c.wide = append(c.wide, c.f.NewWideTables(c.parityCols[lo:hi]))
		}
	})
	return c.wide
}

// New constructs the (k, n−k) Reed-Solomon code of Appendix D over the
// field f, which must be GF(2^8). Requires 0 < k < n ≤ 256.
func New(f *gf.Field, k, n int) (*Code, error) {
	if f.M() != 8 {
		return nil, fmt.Errorf("rs: GF(2^%d) unsupported, want GF(2^8)", f.M())
	}
	h, err := matrix.RSParityCheck(f, k, n)
	if err != nil {
		return nil, err
	}
	g := h.NullSpace()
	if g == nil || g.Rows() != k {
		return nil, fmt.Errorf("rs: null space has wrong dimension for k=%d n=%d", k, n)
	}
	// Systematize: A·G with A = (G_{:,1:k})⁻¹, paper Appendix D.
	a, err := g.Sub(0, k, 0, k).Inverse()
	if err != nil {
		return nil, fmt.Errorf("rs: data columns singular: %w", err)
	}
	gen := a.Mul(g)
	c := &Code{f: f, k: k, n: n, gen: gen}
	c.parityCols = make([][]gf.Elem, n-k)
	for j := k; j < n; j++ {
		col := make([]gf.Elem, k)
		for i := 0; i < k; i++ {
			col[i] = gen.At(i, j)
		}
		c.parityCols[j-k] = col
	}
	return c, nil
}

// New256 constructs the code over the default GF(2^8) field, which covers
// all block lengths n ≤ 256 including the paper's RS(10,4) with n=14.
func New256(k, n int) (*Code, error) { return New(gf.MustNew(8), k, n) }

// K returns the number of data blocks per stripe.
func (c *Code) K() int { return c.k }

// N returns the total number of coded blocks per stripe.
func (c *Code) N() int { return c.n }

// ParityShards returns n−k.
func (c *Code) ParityShards() int { return c.n - c.k }

// Field returns the underlying field.
func (c *Code) Field() *gf.Field { return c.f }

// Generator returns a copy of the k×n systematic generator matrix.
func (c *Code) Generator() *matrix.Matrix { return c.gen.Clone() }

// MinDistance returns the MDS distance n−k+1 (Definition 1; d_MDS).
func (c *Code) MinDistance() int { return c.n - c.k + 1 }

// StorageOverhead returns (n−k)/k, e.g. 0.4 for RS(10,4) (Table 1).
func (c *Code) StorageOverhead() float64 { return float64(c.n-c.k) / float64(c.k) }

// checkShards validates a full shard slice: length n, all non-nil shards
// sharing one size, at least one non-nil.
func (c *Code) checkShards(shards [][]byte) (size int, err error) {
	if len(shards) != c.n {
		return 0, fmt.Errorf("rs: got %d shards, want %d", len(shards), c.n)
	}
	size = -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("rs: shard %d has size %d, want %d", i, len(s), size)
		}
	}
	if size <= 0 {
		return 0, fmt.Errorf("rs: no shards present or zero-size shards")
	}
	return size, nil
}

// Encode computes the n−k parity shards for the k data shards and returns
// the full stripe [data… | parity…]. All data shards must be non-nil and
// equal length. The input slices are referenced, not copied.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: got %d data shards, want %d", len(data), c.k)
	}
	size := len(data[0])
	for i, d := range data {
		if d == nil || len(d) != size {
			return nil, fmt.Errorf("rs: data shard %d nil or size mismatch", i)
		}
	}
	stripe := make([][]byte, c.n)
	copy(stripe, data)
	for j := c.k; j < c.n; j++ {
		stripe[j] = make([]byte, size)
	}
	c.encodeInto(data, stripe[c.k:])
	return stripe, nil
}

// EncodeInto computes the n−k parity shards directly into the caller's
// buffers, overwriting them (they may hold stale bytes from a previous
// stripe — the streaming store's reuse path). parity[j] is coded block
// k+j and must have the data shards' length.
func (c *Code) EncodeInto(data, parity [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("rs: got %d data shards, want %d", len(data), c.k)
	}
	size := len(data[0])
	for i, d := range data {
		if d == nil || len(d) != size {
			return fmt.Errorf("rs: data shard %d nil or size mismatch", i)
		}
	}
	if len(parity) != c.n-c.k {
		return fmt.Errorf("rs: got %d parity buffers, want %d", len(parity), c.n-c.k)
	}
	for j, p := range parity {
		if p == nil || len(p) != size {
			return fmt.Errorf("rs: parity buffer %d nil or size mismatch", j)
		}
	}
	c.encodeInto(data, parity)
	return nil
}

// encodeInto fills the parity buffers with the wide tables: one pass over
// the data for a whole 8-column group.
func (c *Code) encodeInto(data, parity [][]byte) {
	lo := 0
	for _, w := range c.wideTables() {
		w.Dot(parity[lo:lo+w.Lanes()], data, 0, len(data[0]))
		lo += w.Lanes()
	}
}

// decodeInv returns (G restricted to the present columns)⁻¹, cached per
// column set. present must hold exactly k indices.
func (c *Code) decodeInv(present []int) (*matrix.Matrix, error) {
	key := keyOf(present)
	if v, ok := c.invCache.Load(key); ok {
		return v.(*matrix.Matrix), nil
	}
	sub := c.gen.SelectCols(present)
	inv, err := sub.Inverse()
	if err != nil {
		return nil, fmt.Errorf("rs: MDS violation, singular submatrix: %w", err)
	}
	c.invCache.Store(key, inv)
	return inv, nil
}

// ReconstructColsInto rebuilds the requested stripe positions from the
// non-nil shards, which are not modified, into the caller's buffers: dst
// is aligned with positions, each entry sized to the shard length; stale
// contents are overwritten, never read. Each rebuilt column costs one
// fused pass over k surviving payloads: the per-target decode vector
// d_t[j] = Σ_i inv[j,i]·G[i,t] folds the data solve and the re-encode
// into a single slice combination. Positions already present are copied.
// RS decoding is all-or-nothing: with fewer than k survivors nothing is
// recoverable and an error is returned.
func (c *Code) ReconstructColsInto(shards [][]byte, positions []int, dst [][]byte) error {
	size, err := c.checkShards(shards)
	if err != nil {
		return err
	}
	if len(dst) != len(positions) {
		return fmt.Errorf("rs: got %d dst buffers, want %d", len(dst), len(positions))
	}
	var missing []int // indices into positions
	for oi, p := range positions {
		if p < 0 || p >= c.n {
			return fmt.Errorf("rs: position %d out of range [0,%d)", p, c.n)
		}
		if len(dst[oi]) != size {
			return fmt.Errorf("rs: dst buffer %d has size %d, want %d", oi, len(dst[oi]), size)
		}
		if shards[p] != nil {
			copy(dst[oi], shards[p])
		} else {
			missing = append(missing, oi)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	var present []int
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
		}
	}
	if len(present) < c.k {
		return fmt.Errorf("rs: %d shards present, need at least %d", len(present), c.k)
	}
	present = present[:c.k] // MDS: any k columns are independent
	inv, err := c.decodeInv(present)
	if err != nil {
		return err
	}
	srcs := make([][]byte, c.k)
	for j, pj := range present {
		srcs[j] = shards[pj]
	}
	coef := make([]gf.Elem, c.k)
	for _, oi := range missing {
		t := positions[oi]
		for j := 0; j < c.k; j++ {
			if t < c.k {
				// Systematic data column: G[i,t] = δ_it.
				coef[j] = inv.At(j, t)
				continue
			}
			var acc gf.Elem
			for i := 0; i < c.k; i++ {
				acc = c.f.Add(acc, c.f.Mul(inv.At(j, i), c.gen.At(i, t)))
			}
			coef[j] = acc
		}
		c.f.DotSlices(coef, dst[oi], srcs)
	}
	return nil
}

// ColumnSum returns Σ_j g_j over all generator columns. For the Appendix D
// construction this is the zero vector because the all-ones row of H is
// orthogonal to G — the alignment property behind the implied parity.
func (c *Code) ColumnSum() []gf.Elem {
	sum := make([]gf.Elem, c.k)
	for j := 0; j < c.n; j++ {
		for i := 0; i < c.k; i++ {
			sum[i] = c.f.Add(sum[i], c.gen.At(i, j))
		}
	}
	return sum
}
