package gf_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf"
	"repro/internal/lrc"
	"repro/internal/matrix"
	"repro/internal/rs"
)

// generatorRows returns, as fuzz seeds, the coefficient vector of every
// parity block of the two production codes.
func generatorRows(f *testing.F) [][]byte {
	r, err := rs.New256(10, 14)
	if err != nil {
		f.Fatal(err)
	}
	x := lrc.NewXorbas()
	var rows [][]byte
	for _, g := range []*matrix.Matrix{x.Generator(), r.Generator()} {
		for col := g.Rows(); col < g.Cols(); col++ {
			row := make([]byte, g.Rows())
			for i := range row {
				row[i] = byte(g.At(i, col))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FuzzDotSlices: for any coefficient vector (its length is the source
// count), region length, start offsets and accumulate flag, every body of
// the region primitives equals the byte-wise Field.Mul reference and
// leaves the bytes around dst alone. Overwrite runs DotSlices over all
// sources at once; accumulate folds them in one MulAddSlice at a time.
func FuzzDotSlices(f *testing.F) {
	for i, row := range generatorRows(f) {
		f.Add(row, uint16(31*i+4096), uint8(i), uint8(3*i), i%2 == 0, int64(i))
	}
	f.Add([]byte{0, 1, 2}, uint16(33), uint8(31), uint8(1), true, int64(7))
	field := gf.MustNew(8)
	f.Fuzz(func(t *testing.T, row []byte, n uint16, srcOff, dstOff uint8, acc bool, seed int64) {
		if len(row) == 0 || len(row) > 32 {
			t.Skip()
		}
		coeffs := make([]gf.Elem, len(row))
		for j, c := range row {
			coeffs[j] = gf.Elem(c)
		}
		size, so, do := int(n)%(8<<10), int(srcOff)%32, int(dstOff)%32
		rng := rand.New(rand.NewSource(seed))
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = make([]byte, so+size)[so:]
			rng.Read(srcs[j])
		}
		frame := make([]byte, do+size+32)
		rng.Read(frame)

		want := append([]byte(nil), frame...)
		for i := 0; i < size; i++ {
			var sum gf.Elem
			if acc {
				sum = gf.Elem(frame[do+i])
			}
			for j, c := range coeffs {
				sum ^= field.Mul(c, gf.Elem(srcs[j][i]))
			}
			want[do+i] = byte(sum)
		}
		for _, vector := range gf.Bodies() {
			gf.SetBody(t, vector)
			got := append([]byte(nil), frame...)
			dst := got[do : do+size]
			if acc {
				for j, c := range coeffs {
					field.MulAddSlice(c, dst, srcs[j])
				}
			} else {
				field.DotSlices(coeffs, dst, srcs)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("vector=%v acc=%v coeffs=%v size=%d src+%d dst+%d: result or surrounding bytes differ from the reference",
					vector, acc, coeffs, size, so, do)
			}
		}
	})
}
