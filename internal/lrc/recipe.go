package lrc

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/matrix"
)

// recipe is a light-repair rule for one stored block: the block equals
// Σ coefs[j]·stripe[reads[j]]. For the Xorbas code every coefficient is 1
// (pure XOR) and |reads| = 5, matching Eqs. (1) and (2).
type recipe struct {
	reads []int
	coefs []gf.Elem
}

// lightRecipes computes, for every stored block, the light-repair recipe
// implied by the group structure, or nil when the block's column is not in
// the span of its designated repair set (possible only for exotic
// coefficient choices; never for the all-ones construction).
func (c *Code) lightRecipes() []*recipe {
	recipes := make([]*recipe, c.nStored)
	for i := 0; i < c.nStored; i++ {
		recipes[i] = c.solveRecipe(i, c.lightRepairSet(i))
	}
	return recipes
}

// lightRepairSet returns the stored blocks a light repair of block i is
// allowed to read: the rest of i's repair group, plus — for the implied
// parity group — every stored local parity (to synthesize S_impl, Eq. (2)).
// A code without local parities has no groups and so no light repairs.
func (c *Code) lightRepairSet(i int) []int {
	if c.groupOf[i] < 0 {
		return nil
	}
	g := c.groups[c.groupOf[i]]
	var set []int
	for _, m := range g.Members {
		if m != i {
			set = append(set, m)
		}
	}
	if g.Implied {
		for j := 0; j < c.nStored; j++ {
			if c.kinds[j] == LocalParity {
				set = append(set, j)
			}
		}
	}
	return set
}

// solveRecipe expresses generator column i as a combination of the columns
// in reads, returning nil when no representation exists.
func (c *Code) solveRecipe(i int, reads []int) *recipe {
	if len(reads) == 0 {
		return nil
	}
	k := c.params.K
	// Solve C·a = g_i where C is K×|reads|. Use rref on [C | g_i].
	aug := matrix.New(c.f, k, len(reads)+1)
	for jj, j := range reads {
		for r := 0; r < k; r++ {
			aug.Set(r, jj, c.gen.At(r, j))
		}
	}
	for r := 0; r < k; r++ {
		aug.Set(r, len(reads), c.gen.At(r, i))
	}
	sol, ok := solveAny(aug, len(reads))
	if !ok {
		return nil
	}
	// Drop zero-coefficient reads: they carry no information.
	rec := &recipe{}
	for jj, a := range sol {
		if a != 0 {
			rec.reads = append(rec.reads, reads[jj])
			rec.coefs = append(rec.coefs, a)
		}
	}
	if len(rec.reads) == 0 {
		return nil
	}
	return rec
}

// solveAny solves the possibly under/over-determined system formed by an
// augmented matrix [C | b] with nc unknowns, returning any solution (free
// variables set to zero) or ok=false if inconsistent.
func solveAny(aug *matrix.Matrix, nc int) ([]gf.Elem, bool) {
	f := aug.Field()
	rows, cols := aug.Rows(), aug.Cols()
	if cols != nc+1 {
		panic("lrc: solveAny shape")
	}
	m := aug.Clone()
	type pivot struct{ row, col int }
	var pivots []pivot
	r := 0
	for cidx := 0; cidx < nc && r < rows; cidx++ {
		p := -1
		for i := r; i < rows; i++ {
			if m.At(i, cidx) != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		// swap rows r, p
		for j := 0; j < cols; j++ {
			a, b := m.At(r, j), m.At(p, j)
			m.Set(r, j, b)
			m.Set(p, j, a)
		}
		inv := f.Inv(m.At(r, cidx))
		for j := 0; j < cols; j++ {
			m.Set(r, j, f.Mul(inv, m.At(r, j)))
		}
		for i := 0; i < rows; i++ {
			if i != r && m.At(i, cidx) != 0 {
				c := m.At(i, cidx)
				for j := 0; j < cols; j++ {
					m.Set(i, j, f.Add(m.At(i, j), f.Mul(c, m.At(r, j))))
				}
			}
		}
		pivots = append(pivots, pivot{r, cidx})
		r++
	}
	// Inconsistent if a zero row has nonzero rhs.
	for i := r; i < rows; i++ {
		if m.At(i, nc) != 0 {
			return nil, false
		}
	}
	sol := make([]gf.Elem, nc)
	for _, p := range pivots {
		sol[p.col] = m.At(p.row, nc)
	}
	return sol, true
}

// Recipe exposes the light-repair rule of stored block i: the blocks read
// and their combination coefficients. ok is false when no light repair
// exists for i (then only heavy decoding can rebuild it).
func (c *Code) Recipe(i int) (reads []int, coefs []gf.Elem, ok bool) {
	if i < 0 || i >= c.nStored {
		return nil, nil, false
	}
	r := c.recipes[i]
	if r == nil {
		return nil, nil, false
	}
	return append([]int(nil), r.reads...), append([]gf.Elem(nil), r.coefs...), true
}

// lightReadSet returns the stored blocks light repair of i reads, or nil.
func (c *Code) lightReadSet(i int) []int {
	r := c.recipes[i]
	if r == nil {
		return nil
	}
	return r.reads
}

// VerifyLocality checks every stored block's recipe against the generator:
// the recipe columns must combine exactly to the block's column. It
// returns an error naming the first violating block.
func (c *Code) VerifyLocality() error {
	k := c.params.K
	for i := 0; i < c.nStored; i++ {
		r := c.recipes[i]
		if r == nil {
			return fmt.Errorf("lrc: block %d has no light repair", i)
		}
		for row := 0; row < k; row++ {
			var acc gf.Elem
			for jj, j := range r.reads {
				acc = c.f.Add(acc, c.f.Mul(r.coefs[jj], c.gen.At(row, j)))
			}
			if acc != c.gen.At(row, i) {
				return fmt.Errorf("lrc: recipe for block %d does not reproduce its column", i)
			}
		}
	}
	return nil
}
