package lrc

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/matrix"
	"repro/internal/rs"
)

// Pyramid codes (Huang, Chen, Li — NCA'07), the §6 predecessor family:
// "flexible schemes to trade space for access efficiency". A basic
// pyramid code takes an RS(k, p) and *splits* one global parity into
// per-group partial parities: sub-parity g is the P1-combination
// restricted to group g's data blocks, so Σ_g sub_g = P1 and each data
// block gains locality r. The contrast with the paper's LRC is the
// global parities: a pyramid code's surviving globals have NO local
// repair (locality k), whereas the LRC's implied-parity alignment gives
// every stored block locality r. NewPyramid exists as a baseline for the
// ablation benchmarks; the shared Code machinery (planner, decoder,
// distance enumeration) treats it uniformly.
//
// Layout: positions 0..k-1 data; k..k+G-1 sub-parities (one per data
// group, splitting the first RS parity); k+G.. the remaining p−1 global
// parities.
func NewPyramid(p Params) (*Code, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.GroupSize == 0 {
		return nil, fmt.Errorf("lrc: pyramid needs data groups to split a parity over (GroupSize > 0)")
	}
	if p.GlobalParities < 2 {
		return nil, fmt.Errorf("lrc: pyramid needs ≥2 RS parities (one is split)")
	}
	if p.StoreImplied {
		return nil, fmt.Errorf("lrc: StoreImplied does not apply to pyramid codes")
	}
	f := gf.MustNew(8)
	nPre := p.K + p.GlobalParities
	pre, err := rs.New(f, p.K, nPre)
	if err != nil {
		return nil, fmt.Errorf("lrc: precode: %w", err)
	}
	g := p.numGroups()
	nStored := p.K + g + (p.GlobalParities - 1)

	c := &Code{
		params:  p,
		f:       f,
		pre:     pre,
		nStored: nStored,
		kinds:   make([]BlockKind, nStored),
		groupOf: make([]int, nStored),
	}
	preGen := pre.Generator()
	gen := matrix.New(f, p.K, nStored)
	// Data columns.
	for i := 0; i < p.K; i++ {
		c.kinds[i] = Data
		for r := 0; r < p.K; r++ {
			gen.Set(r, i, preGen.At(r, i))
		}
	}
	// Sub-parities: split RS parity column k by data group. The
	// "coefficients" of group g's sub-parity are the parity column's own
	// entries restricted to the group (so Σ_g sub_g = P1 exactly).
	splitCol := p.K
	for gi := 0; gi < g; gi++ {
		lo := gi * p.GroupSize
		hi := lo + p.GroupSize
		if hi > p.K {
			hi = p.K
		}
		members := make([]int, 0, hi-lo)
		var coefs []gf.Elem
		for j := lo; j < hi; j++ {
			members = append(members, j)
			cv := preGen.At(j, splitCol)
			if cv == 0 {
				return nil, fmt.Errorf("lrc: pyramid split hit a zero parity coefficient at data %d", j)
			}
			coefs = append(coefs, cv)
		}
		c.dataGroups = append(c.dataGroups, append([]int(nil), members...))
		c.coeffs = append(c.coeffs, coefs)
		col := p.K + gi
		c.kinds[col] = LocalParity
		for _, j := range members {
			cv := preGen.At(j, splitCol)
			// Column of sub_g = Σ_{j∈group} cv_j · (data column j).
			for r := 0; r < p.K; r++ {
				gen.Set(r, col, f.Add(gen.At(r, col), f.Mul(cv, preGen.At(r, j))))
			}
		}
		grp := Group{Members: append(append([]int(nil), members...), col)}
		c.groups = append(c.groups, grp)
		for _, m := range grp.Members {
			c.groupOf[m] = gi
		}
	}
	// Remaining global parities (columns k+1 … k+p−1 of the precode).
	pg := Group{}
	for j := 1; j < p.GlobalParities; j++ {
		col := p.K + g + (j - 1)
		c.kinds[col] = GlobalParity
		c.groupOf[col] = g
		pg.Members = append(pg.Members, col)
		for r := 0; r < p.K; r++ {
			gen.Set(r, col, preGen.At(r, p.K+j))
		}
	}
	c.groups = append(c.groups, pg)
	c.gen = gen
	c.recipes = c.lightRecipes()
	c.buildParityCols()
	return c, nil
}

// FullyLocal reports whether every stored block has a light repair (true
// for the paper's LRCs via the implied parity; false for pyramid codes,
// whose global parities need a full heavy decode).
func (c *Code) FullyLocal() bool {
	for i := 0; i < c.nStored; i++ {
		if c.recipes[i] == nil {
			return false
		}
	}
	return true
}
