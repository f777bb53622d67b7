package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf"
	"repro/internal/matrix"
)

func mustCode(t testing.TB, k, n int) *Code {
	t.Helper()
	c, err := New256(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randShards(r *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	return data
}

// reconstructCols decodes the requested positions into fresh buffers.
func reconstructCols(c *Code, shards [][]byte, positions []int) ([][]byte, error) {
	size := 0
	for _, s := range shards {
		if s != nil {
			size = len(s)
		}
	}
	dst := make([][]byte, len(positions))
	for oi := range dst {
		dst[oi] = make([]byte, size)
	}
	if err := c.ReconstructColsInto(shards, positions, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// reconstruct fills the nil entries of shards in place and returns how
// many it rebuilt.
func reconstruct(c *Code, shards [][]byte) (int, error) {
	var missing []int
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
		}
	}
	got, err := reconstructCols(c, shards, missing)
	if err != nil {
		return 0, err
	}
	for oi, i := range missing {
		shards[i] = got[oi]
	}
	return len(missing), nil
}

func TestNewParameterValidation(t *testing.T) {
	if _, err := New256(0, 4); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New256(10, 10); err == nil {
		t.Error("n=k accepted")
	}
	if _, err := New256(10, 300); err == nil {
		t.Error("n > field size accepted")
	}
	if _, err := New(gf.MustNew(16), 10, 14); err == nil {
		t.Error("GF(2^16) accepted")
	}
}

func TestSystematicGenerator(t *testing.T) {
	c := mustCode(t, 10, 14)
	g := c.Generator()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := gf.Elem(0)
			if i == j {
				want = 1
			}
			if g.At(i, j) != want {
				t.Fatalf("generator not systematic at (%d,%d)", i, j)
			}
		}
	}
}

func TestGeneratorOrthogonalToParityCheck(t *testing.T) {
	c := mustCode(t, 10, 14)
	h, _ := matrix.RSParityCheck(c.Field(), 10, 14)
	if !c.Generator().Mul(h.Transpose()).IsZero() {
		t.Fatal("G·Hᵀ != 0")
	}
}

// The alignment property: Σ g_j = 0 (all-ones in row space of H). This is
// what Theorem 5's implied parity rests on.
func TestColumnSumZero(t *testing.T) {
	for _, p := range [][2]int{{10, 14}, {5, 8}, {50, 60}, {100, 114}} {
		c := mustCode(t, p[0], p[1])
		for i, v := range c.ColumnSum() {
			if v != 0 {
				t.Fatalf("(%d,%d): column sum nonzero at row %d", p[0], p[1], i)
			}
		}
	}
}

func TestEncodeReconstructAllSinglePatterns(t *testing.T) {
	c := mustCode(t, 10, 14)
	r := rand.New(rand.NewSource(1))
	stripe, err := c.Encode(randShards(r, 10, 128))
	if err != nil {
		t.Fatal(err)
	}
	for lost := 0; lost < 14; lost++ {
		work := make([][]byte, 14)
		copy(work, stripe)
		work[lost] = nil
		n, err := reconstruct(c, work)
		if err != nil {
			t.Fatalf("lost=%d: %v", lost, err)
		}
		if n != 1 {
			t.Fatalf("lost=%d: rebuilt %d", lost, n)
		}
		if !bytes.Equal(work[lost], stripe[lost]) {
			t.Fatalf("lost=%d: wrong reconstruction", lost)
		}
	}
}

// MDS property: any 4 erasures are recoverable, enumerated exhaustively
// (C(14,4) = 1001 patterns).
func TestMDSAllFourErasurePatterns(t *testing.T) {
	c := mustCode(t, 10, 14)
	r := rand.New(rand.NewSource(2))
	stripe, _ := c.Encode(randShards(r, 10, 32))
	idx := [4]int{}
	count := 0
	for idx[0] = 0; idx[0] < 14; idx[0]++ {
		for idx[1] = idx[0] + 1; idx[1] < 14; idx[1]++ {
			for idx[2] = idx[1] + 1; idx[2] < 14; idx[2]++ {
				for idx[3] = idx[2] + 1; idx[3] < 14; idx[3]++ {
					work := make([][]byte, 14)
					copy(work, stripe)
					for _, i := range idx {
						work[i] = nil
					}
					if _, err := reconstruct(c, work); err != nil {
						t.Fatalf("pattern %v: %v", idx, err)
					}
					for _, i := range idx {
						if !bytes.Equal(work[i], stripe[i]) {
							t.Fatalf("pattern %v: shard %d wrong", idx, i)
						}
					}
					count++
				}
			}
		}
	}
	if count != 1001 {
		t.Fatalf("enumerated %d patterns, want 1001", count)
	}
}

func TestFiveErasuresFail(t *testing.T) {
	c := mustCode(t, 10, 14)
	r := rand.New(rand.NewSource(3))
	stripe, _ := c.Encode(randShards(r, 10, 16))
	for i := 0; i < 5; i++ {
		stripe[i] = nil
	}
	if _, err := reconstruct(c, stripe); err == nil {
		t.Fatal("5 erasures should exceed d-1=4 for any k... (needs k=10 present)")
	}
}

func TestEncodeInputValidation(t *testing.T) {
	c := mustCode(t, 4, 6)
	if _, err := c.Encode(make([][]byte, 3)); err == nil {
		t.Error("wrong shard count accepted")
	}
	bad := [][]byte{{1}, {2, 3}, {4}, {5}}
	if _, err := c.Encode(bad); err == nil {
		t.Error("ragged shards accepted")
	}
	if _, err := c.Encode([][]byte{{1}, nil, {3}, {4}}); err == nil {
		t.Error("nil data shard accepted")
	}
}

func TestReconstructValidation(t *testing.T) {
	c := mustCode(t, 4, 6)
	if _, err := reconstruct(c, make([][]byte, 5)); err == nil {
		t.Error("wrong shard count accepted")
	}
	all := make([][]byte, 6)
	if _, err := reconstruct(c, all); err == nil {
		t.Error("all-nil accepted")
	}
	ragged := [][]byte{{1}, {2, 2}, nil, nil, nil, nil}
	if _, err := reconstruct(c, ragged); err == nil {
		t.Error("ragged accepted")
	}
}

func TestReconstructNoMissing(t *testing.T) {
	c := mustCode(t, 4, 6)
	r := rand.New(rand.NewSource(5))
	stripe, _ := c.Encode(randShards(r, 4, 8))
	if err := c.ReconstructColsInto(stripe, nil, nil); err != nil {
		t.Fatalf("decoding no positions of a full stripe: %v", err)
	}
}

// Property: encode → erase ≤ n−k random shards → reconstruct round-trips,
// across random (k, n) geometries.
func TestPropertyEncodeEraseReconstruct(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(10)
		n := k + 1 + r.Intn(6)
		c, err := New256(k, n)
		if err != nil {
			return false
		}
		stripe, err := c.Encode(randShards(r, k, 1+r.Intn(64)))
		if err != nil {
			return false
		}
		orig := make([][]byte, n)
		for i := range stripe {
			orig[i] = append([]byte(nil), stripe[i]...)
		}
		e := 1 + r.Intn(n-k)
		for _, i := range r.Perm(n)[:e] {
			stripe[i] = nil
		}
		if _, err := reconstruct(c, stripe); err != nil {
			return false
		}
		for i := range stripe {
			if !bytes.Equal(stripe[i], orig[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Exact minimum distance by exhaustive erasure enumeration for a small
// code: (4,3)-RS over GF(2^8) must have d = 4.
func TestExactMinimumDistanceSmallCode(t *testing.T) {
	c := mustCode(t, 4, 7)
	g := c.Generator()
	// d = n - max{|S| : rank(G_S) < k}; equivalently the code can tolerate
	// any d-1 erasures. Check rank of every (n - e)-column subset.
	n, k := 7, 4
	for e := 1; e <= n-k; e++ {
		// every erasure pattern of size e must leave rank k
		var rec func(start int, chosen []int)
		ok := true
		var check func([]int)
		check = func(erased []int) {
			er := map[int]bool{}
			for _, i := range erased {
				er[i] = true
			}
			var keep []int
			for j := 0; j < n; j++ {
				if !er[j] {
					keep = append(keep, j)
				}
			}
			if g.SelectCols(keep).Rank() != k {
				ok = false
			}
		}
		rec = func(start int, chosen []int) {
			if len(chosen) == e {
				check(chosen)
				return
			}
			for i := start; i < n; i++ {
				rec(i+1, append(chosen, i))
			}
		}
		rec(0, nil)
		if !ok {
			t.Fatalf("some %d-erasure pattern not recoverable; d < %d", e, e+1)
		}
	}
}

func TestStorageOverheadAndDistance(t *testing.T) {
	c := mustCode(t, 10, 14)
	if c.MinDistance() != 5 {
		t.Fatalf("d=%d want 5", c.MinDistance())
	}
	if got := c.StorageOverhead(); got != 0.4 {
		t.Fatalf("overhead=%f want 0.4", got)
	}
	if c.ParityShards() != 4 || c.K() != 10 || c.N() != 14 {
		t.Fatal("accessors wrong")
	}
}

func BenchmarkEncodeRS10_4(b *testing.B) {
	c := mustCode(b, 10, 14)
	r := rand.New(rand.NewSource(1))
	data := randShards(r, 10, 1<<16)
	b.SetBytes(10 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructOneOfFourteen(b *testing.B) {
	c := mustCode(b, 10, 14)
	r := rand.New(rand.NewSource(1))
	stripe, _ := c.Encode(randShards(r, 10, 1<<16))
	b.SetBytes(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, 14)
		copy(work, stripe)
		work[3] = nil
		if _, err := reconstruct(c, work); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReconstructCols checks the fused column decoder over data-only,
// parity-only (which must not decode the data shards at all to be
// correct) and mixed requests, and that it leaves its inputs alone.
func TestReconstructCols(t *testing.T) {
	c := mustCode(t, 10, 14)
	r := rand.New(rand.NewSource(41))
	data := randShards(r, 10, 96)
	full, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]int{
		{0}, {9}, {10}, {13}, {0, 13}, {3, 7, 11}, {10, 11, 12, 13}, {0, 1, 2, 3},
	}
	for _, lost := range patterns {
		work := make([][]byte, len(full))
		copy(work, full)
		for _, i := range lost {
			work[i] = nil
		}
		got, err := reconstructCols(c, work, lost)
		if err != nil {
			t.Fatalf("ReconstructCols(%v): %v", lost, err)
		}
		for oi, i := range lost {
			if !bytes.Equal(got[oi], full[i]) {
				t.Fatalf("ReconstructCols(%v): position %d mismatch", lost, i)
			}
		}
		for i, s := range work {
			if s != nil && !bytes.Equal(s, full[i]) {
				t.Fatalf("ReconstructCols(%v) mutated shard %d", lost, i)
			}
		}
	}
	// Requesting a present position returns a copy.
	got, err := reconstructCols(c, full, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], full[5]) {
		t.Fatal("present position mismatch")
	}
	got[0][0] ^= 0xFF
	if got[0][0] == full[5][0] {
		t.Fatal("present position aliases the stripe")
	}
}

// TestReconstructColsUnrecoverable: below rank k nothing is returned.
func TestReconstructColsUnrecoverable(t *testing.T) {
	c := mustCode(t, 10, 14)
	r := rand.New(rand.NewSource(42))
	full, err := c.Encode(randShards(r, 10, 32))
	if err != nil {
		t.Fatal(err)
	}
	work := make([][]byte, len(full))
	copy(work, full)
	lost := []int{0, 1, 2, 3, 4}
	for _, i := range lost {
		work[i] = nil
	}
	if _, err := reconstructCols(c, work, lost); err == nil {
		t.Fatal("want error for 5 erasures on RS(10,4)")
	}
}

// TestReconstructColsCached: repeated decodes of one erasure pattern
// (the steady-state node-repair shape) reuse the cached inverse and stay
// correct.
func TestReconstructColsCached(t *testing.T) {
	c := mustCode(t, 10, 14)
	r := rand.New(rand.NewSource(43))
	for round := 0; round < 3; round++ {
		full, err := c.Encode(randShards(r, 10, 48))
		if err != nil {
			t.Fatal(err)
		}
		work := make([][]byte, len(full))
		copy(work, full)
		work[2] = nil
		got, err := reconstructCols(c, work, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], full[2]) {
			t.Fatalf("round %d: cached decode mismatch", round)
		}
	}
}
