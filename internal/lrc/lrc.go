// Package lrc implements Locally Repairable Codes, the paper's primary
// contribution (Section 2, Appendices C–D).
//
// An LRC is layered on a systematic (k, p) Reed-Solomon precode. The k
// data blocks are partitioned into groups of at most r blocks and one
// local parity S_g = Σ c_i·X_i is added per group, making every data
// block repairable from r other blocks instead of k. The global parities
// form their own repair group whose local parity S_impl is *implied*: the
// paper's interference-alignment argument (Theorem 5) shows that with the
// Appendix D Reed-Solomon generator the all-ones vector lies in the row
// space of H, hence Σ of all k+p generator columns is zero and therefore
//
//	Σ_g S_g + S_impl = 0,
//
// so S_impl never needs to be stored: it is the XOR of the stored local
// parities. This saves one block of storage per stripe (16/10 instead of
// 17/10 overhead for the Xorbas code) at no cost in locality.
//
// The flagship instance is NewXorbas: the (10,6,5) code of Fig. 2 —
// 10 data blocks, a (10,4) RS precode, two stored local XOR parities
// S1 = X1+…+X5 and S2 = X6+…+X10, implied S3 = P1+P2+P3+P4, locality 5
// for every one of the 16 stored blocks, and optimal distance d = 5.
//
// The baseline the paper compares against is a member of the same family:
// NewRS104 is the (10,4) precode with no local parities (GroupSize 0), so
// the program encodes, plans repairs for and decodes RS(10,4) through
// this package's one planner (PlanRepair) and one heavy decoder rather
// than through a parallel implementation.
package lrc

import (
	"fmt"
	"sync"

	"repro/internal/gf"
	"repro/internal/matrix"
	"repro/internal/rs"
)

// Params describes an LRC geometry.
type Params struct {
	// K is the number of data blocks per stripe (10 in the paper).
	K int
	// GlobalParities is the number of Reed-Solomon parities p (4 in the
	// paper). The precode is a (K, K+GlobalParities) RS code.
	GlobalParities int
	// GroupSize is the locality r of the data groups: each local parity
	// covers at most GroupSize data blocks (5 in the paper). 0 means no
	// local parities at all: the stored stripe is the Reed-Solomon precode
	// alone — the MDS, locality-K corner of the family (Theorem 2) and the
	// paper's RS(10,4) baseline. Such a code has no repair groups and no
	// light recipes, so every repair plans and decodes heavy.
	GroupSize int
	// StoreImplied stores the parity-group local parity S_impl as a real
	// block instead of implying it. This is the paper's pre-optimization
	// layout (17/10 storage) and exists for the ablation benchmarks.
	StoreImplied bool
}

// Validate checks the geometry is constructible over GF(2^8).
func (p Params) Validate() error {
	if p.K <= 0 || p.GlobalParities <= 0 {
		return fmt.Errorf("lrc: K and GlobalParities must be positive, got %d,%d", p.K, p.GlobalParities)
	}
	if p.GroupSize != 0 && (p.GroupSize < 2 || p.GroupSize > p.K) {
		return fmt.Errorf("lrc: GroupSize %d is neither 0 nor in [2,%d]", p.GroupSize, p.K)
	}
	if p.GroupSize == 0 && p.StoreImplied {
		return fmt.Errorf("lrc: StoreImplied needs local parities (GroupSize > 0)")
	}
	return nil
}

// numGroups returns the number of data groups ⌈K/GroupSize⌉ (none when
// GroupSize is 0).
func (p Params) numGroups() int {
	if p.GroupSize == 0 {
		return 0
	}
	return (p.K + p.GroupSize - 1) / p.GroupSize
}

// Xorbas is the paper's (10, 6, 5) geometry.
var Xorbas = Params{K: 10, GlobalParities: 4, GroupSize: 5}

// RS104 is the paper's baseline, RS(10,4): the Xorbas precode with no
// local parities.
var RS104 = Params{K: 10, GlobalParities: 4}

// BlockKind classifies a stored block's role in the stripe.
type BlockKind int

const (
	// Data is one of the k systematic file blocks X_i.
	Data BlockKind = iota
	// GlobalParity is a Reed-Solomon parity P_i.
	GlobalParity
	// LocalParity is a stored local parity S_g.
	LocalParity
)

func (k BlockKind) String() string {
	switch k {
	case Data:
		return "data"
	case GlobalParity:
		return "global-parity"
	case LocalParity:
		return "local-parity"
	default:
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
}

// Group is a repair group Γ: a set of stored blocks such that any single
// member is a deterministic function of the others (Definition 3's
// (r+1)-group). For the parity group with an implied parity, the function
// additionally consumes every stored local parity (to reconstruct S_impl).
type Group struct {
	// Members are the stored block indices in the group. For the parity
	// group this is the global parities plus, if stored, S_impl.
	Members []int
	// Implied marks the global-parity group when its local parity is not
	// stored; repairs then read the stored local parities as well.
	Implied bool
}

// Code is an immutable Locally Repairable Code. Safe for concurrent use:
// the constructor sets every field but the encode tables, which are built
// once on first encode. Repair plans and heavy-decode inverses are computed
// per call, never stored.
type Code struct {
	params Params
	f      *gf.Field
	pre    *rs.Code // (K, K+P) Reed-Solomon precode

	nStored int // K + P + stored local parities
	kinds   []BlockKind
	groups  []Group
	// groupOf[i] is the index in groups of block i's repair group.
	groupOf []int
	// coeffs[g][j] is the coefficient c of the j-th member data block in
	// local parity S_g (all ones for the XOR construction the paper
	// deploys; the randomized construction draws them from F*).
	coeffs [][]gf.Elem
	// gen is the K×nStored generator: data columns, RS parity columns,
	// then one column per stored local parity.
	gen *matrix.Matrix
	// dataGroups[g] lists the data block indices covered by S_g.
	dataGroups [][]int
	// recipes[i] is stored block i's light-repair recipe (nil when it has
	// none), computed once by the constructor; nothing writes it after.
	recipes []*recipe
	// parityCols[j-K] is generator column j as a flat coefficient vector,
	// extracted once so the encoders iterate a slice instead of calling
	// gen.At in the hot loop.
	parityCols [][]gf.Elem
	// wide holds the encode tables: each set computes up to 8 parity
	// columns in one pass over the data (the encode hot path; see
	// gf.WideTables for its two bodies). Built lazily on first
	// encode so constructing a Code for analysis (distance sweeps, plan
	// enumeration) stays cheap; sync.Once publishes the finished tables
	// to concurrent encoders.
	wideOnce sync.Once
	wide     []*gf.WideTables
	// scratch pools the buffers (*[]byte) Verify recomputes a stripe's
	// parities into.
	scratch sync.Pool
}

// decoder is the heavy solve for one availability pattern: data =
// (payloads of chosen)·inv. decoderFor builds one per decode.
type decoder struct {
	chosen []int          // K available blocks with independent columns
	inv    *matrix.Matrix // (generator restricted to chosen)⁻¹
}

// wideTables returns the encode tables, building them on
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

// New constructs an LRC with all-ones (pure XOR) local-parity
// coefficients, the construction HDFS-Xorbas deploys (Section 2.1: "for
// the Reed-Solomon code implemented in HDFS RAID, choosing c_i = 1 ∀i …
// is sufficient").
func New(p Params) (*Code, error) {
	return newWithCoefficientFn(p, func(g, j int) gf.Elem { return 1 })
}

// NewXorbas returns the explicit (10,6,5) LRC of Fig. 2.
func NewXorbas() *Code { return mustNew(Xorbas) }

// NewRS104 returns the RS(10,4) baseline: the same 14 precode blocks
// NewXorbas stores, planned and decoded by the same engine.
func NewRS104() *Code { return mustNew(RS104) }

func mustNew(p Params) *Code {
	c, err := New(p)
	if err != nil {
		panic(fmt.Sprintf("lrc: built-in geometry %+v failed: %v", p, err))
	}
	return c
}

// newWithCoefficientFn builds the code with local coefficient c(g, j) for
// the j-th member of data group g. Coefficients must be nonzero so the
// inverse in Eq. (1) exists.
func newWithCoefficientFn(p Params, coeff func(g, j int) gf.Elem) (*Code, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := gf.MustNew(8)
	nPre := p.K + p.GlobalParities
	pre, err := rs.New(f, p.K, nPre)
	if err != nil {
		return nil, fmt.Errorf("lrc: precode: %w", err)
	}
	g := p.numGroups()
	nStored := nPre + g
	if p.StoreImplied {
		nStored++
	}

	c := &Code{
		params:  p,
		f:       f,
		pre:     pre,
		nStored: nStored,
		kinds:   make([]BlockKind, nStored),
		groupOf: make([]int, nStored),
	}

	// Partition data blocks into groups.
	for gi := 0; gi < g; gi++ {
		lo := gi * p.GroupSize
		hi := lo + p.GroupSize
		if hi > p.K {
			hi = p.K
		}
		members := make([]int, 0, hi-lo+1)
		var cs []gf.Elem
		for j := lo; j < hi; j++ {
			members = append(members, j)
			cv := coeff(gi, j-lo)
			if cv == 0 {
				return nil, fmt.Errorf("lrc: zero local coefficient in group %d", gi)
			}
			cs = append(cs, cv)
		}
		c.dataGroups = append(c.dataGroups, append([]int(nil), members...))
		c.coeffs = append(c.coeffs, cs)
		lpIdx := nPre + gi
		members = append(members, lpIdx)
		c.groups = append(c.groups, Group{Members: members})
		for _, m := range members {
			c.groupOf[m] = gi
		}
		c.kinds[lpIdx] = LocalParity
	}

	for j := p.K; j < nPre; j++ {
		c.kinds[j] = GlobalParity
	}
	if g == 0 {
		// No local parities to imply a parity-group parity from: the
		// global parities, like the data, belong to no repair group.
		for i := range c.groupOf {
			c.groupOf[i] = -1
		}
	} else {
		// The parity group: global parities plus implied (or stored) parity.
		pg := Group{Implied: !p.StoreImplied}
		for j := p.K; j < nPre; j++ {
			pg.Members = append(pg.Members, j)
			c.groupOf[j] = g
		}
		if p.StoreImplied {
			si := nStored - 1
			pg.Members = append(pg.Members, si)
			c.kinds[si] = LocalParity
			c.groupOf[si] = g
		}
		c.groups = append(c.groups, pg)
	}

	for i := 0; i < p.K; i++ {
		c.kinds[i] = Data
	}

	c.gen = c.buildGenerator()
	c.recipes = c.lightRecipes()
	c.buildParityCols()
	return c, nil
}

// buildParityCols flattens the non-data generator columns for the encode
// hot loop. Must run after gen is assembled.
func (c *Code) buildParityCols() {
	k := c.params.K
	c.parityCols = make([][]gf.Elem, c.nStored-k)
	for j := k; j < c.nStored; j++ {
		col := make([]gf.Elem, k)
		for i := 0; i < k; i++ {
			col[i] = c.gen.At(i, j)
		}
		c.parityCols[j-k] = col
	}
}

// buildGenerator assembles the K×nStored generator matrix: the precode's
// generator followed by the local-parity columns Σ c_i·g_i (Eq. (7)).
func (c *Code) buildGenerator() *matrix.Matrix {
	preGen := c.pre.Generator()
	k := c.params.K
	gen := matrix.New(c.f, k, c.nStored)
	for i := 0; i < k; i++ {
		for j := 0; j < preGen.Cols(); j++ {
			gen.Set(i, j, preGen.At(i, j))
		}
	}
	nPre := preGen.Cols()
	for gi, members := range c.dataGroups {
		col := nPre + gi
		for mi, dj := range members {
			cv := c.coeffs[gi][mi]
			for i := 0; i < k; i++ {
				gen.Set(i, col, c.f.Add(gen.At(i, col), c.f.Mul(cv, preGen.At(i, dj))))
			}
		}
	}
	if c.params.StoreImplied {
		// S_impl column = Σ global parity columns.
		col := c.nStored - 1
		for j := k; j < nPre; j++ {
			for i := 0; i < k; i++ {
				gen.Set(i, col, c.f.Add(gen.At(i, col), preGen.At(i, j)))
			}
		}
	}
	return gen
}

// Params returns the geometry.
func (c *Code) Params() Params { return c.params }

// K returns the number of data blocks per stripe.
func (c *Code) K() int { return c.params.K }

// NStored returns the number of stored blocks per full stripe (16 for the
// Xorbas code).
func (c *Code) NStored() int { return c.nStored }

// NPre returns the precode length K + GlobalParities (14 for Xorbas).
func (c *Code) NPre() int { return c.params.K + c.params.GlobalParities }

// Precode returns the underlying Reed-Solomon code.
func (c *Code) Precode() *rs.Code { return c.pre }

// Kind returns the role of stored block i.
func (c *Code) Kind(i int) BlockKind { return c.kinds[i] }

// Groups returns the repair groups (data groups first, parity group
// last); empty when the code has no local parities.
func (c *Code) Groups() []Group {
	out := make([]Group, len(c.groups))
	for i, g := range c.groups {
		out[i] = Group{Members: append([]int(nil), g.Members...), Implied: g.Implied}
	}
	return out
}

// GroupOf returns the repair-group index of stored block i, or -1 when
// the code has no repair groups.
func (c *Code) GroupOf(i int) int { return c.groupOf[i] }

// Generator returns a copy of the K×NStored generator matrix.
func (c *Code) Generator() *matrix.Matrix { return c.gen.Clone() }

// Locality returns the code's block locality r: the maximum, over stored
// blocks, of the number of blocks needed to repair one. For Xorbas this
// is 5 for every block (Theorem 5). Blocks without a light repair (a
// pyramid code's global parities) count K — repairing them decodes the
// whole stripe.
func (c *Code) Locality() int {
	r := 0
	for i := 0; i < c.nStored; i++ {
		l := len(c.lightReadSet(i))
		if l == 0 {
			l = c.params.K
		}
		if l > r {
			r = l
		}
	}
	return r
}

// DataLocality returns the maximum light-repair read count over data
// blocks only — the metric pyramid codes optimize (§6).
func (c *Code) DataLocality() int {
	r := 0
	for i := 0; i < c.params.K; i++ {
		l := len(c.lightReadSet(i))
		if l == 0 {
			l = c.params.K
		}
		if l > r {
			r = l
		}
	}
	return r
}

// StorageOverhead returns (NStored−K)/K, e.g. 0.6 for Xorbas (Table 1).
func (c *Code) StorageOverhead() float64 {
	return float64(c.nStored-c.params.K) / float64(c.params.K)
}

// DistanceBound returns the Theorem 2 upper bound on the minimum distance
// of any (k, n−k) code with locality r:
//
//	d ≤ n − ⌈k/r⌉ − k + 2.
func DistanceBound(k, n, r int) int {
	return n - (k+r-1)/r - k + 2
}

// MinDistanceBound returns the Theorem 2 bound evaluated at this code's
// parameters (n = NStored, r = Locality).
func (c *Code) MinDistanceBound() int {
	return DistanceBound(c.params.K, c.nStored, c.Locality())
}

// MinDistance computes the exact minimum distance by exhaustive erasure
// enumeration: the smallest e such that some e-subset of stored blocks,
// when erased, leaves generator columns of rank < K (Definition 1 via the
// entropy characterization of Eq. (5)). Cost grows as C(n, d); intended
// for stripe-scale codes (n ≤ ~24). Use MinDistanceBound for large n.
func (c *Code) MinDistance() int {
	n, k := c.nStored, c.params.K
	for e := 1; e <= n-k+1; e++ {
		if c.existsFatalErasure(e) {
			return e
		}
	}
	return n - k + 1
}

// existsFatalErasure reports whether erasing some e blocks drops the
// remaining columns' rank below K.
func (c *Code) existsFatalErasure(e int) bool {
	n, k := c.nStored, c.params.K
	erased := make([]int, e)
	var rec func(start, depth int) bool
	rec = func(start, depth int) bool {
		if depth == e {
			keep := make([]int, 0, n-e)
			em := make(map[int]bool, e)
			for _, i := range erased {
				em[i] = true
			}
			for j := 0; j < n; j++ {
				if !em[j] {
					keep = append(keep, j)
				}
			}
			if len(keep) == 0 {
				return true // erasing every block (e = n, reached when k = 1) loses the data
			}
			return c.gen.SelectCols(keep).Rank() < k
		}
		for i := start; i < n; i++ {
			erased[depth] = i
			if rec(i+1, depth+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}
