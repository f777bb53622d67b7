package lrc

import (
	"fmt"

	"repro/internal/gf"
)

// Plan describes a single-block repair: which stored blocks are read and
// whether the light decoder suffices. Plans drive the cluster simulator's
// traffic accounting; payload-level decoding lives in codec.go.
type Plan struct {
	// Reads lists the stored block indices the repair streams in.
	Reads []int
	// Light is true when the 5-block local decoder is used (§3.1.2).
	Light bool
}

// PlanRepair computes the read set to repair stored block lost.
//
// exists[i] marks blocks physically stored in this stripe (false for
// zero-padding positions of short stripes); avail[i] marks existing blocks
// currently readable. deployed selects the read-set policy for the heavy
// decoder: the deployed HDFS implementation opens streams to all available
// blocks of the stripe (§3.1.2), while the minimal policy reads just a
// rank-sufficient subset.
func (c *Code) PlanRepair(lost int, exists, avail []bool, deployed bool) (Plan, error) {
	if len(exists) != c.nStored || len(avail) != c.nStored {
		return Plan{}, fmt.Errorf("lrc: masks must have %d entries", c.nStored)
	}
	if lost < 0 || lost >= c.nStored || !exists[lost] {
		return Plan{}, fmt.Errorf("lrc: block %d does not exist in this stripe", lost)
	}
	// Light decoder: every existing block in the recipe must be available.
	if r := c.recipeCache[lost]; r != nil {
		light := true
		var reads []int
		for _, j := range r.reads {
			if !exists[j] {
				continue // zero padding: known, not read
			}
			if !avail[j] {
				light = false
				break
			}
			reads = append(reads, j)
		}
		if light {
			return Plan{Reads: reads, Light: true}, nil
		}
	}
	// Heavy decoder.
	var pool []int
	for i := 0; i < c.nStored; i++ {
		if i != lost && exists[i] && avail[i] {
			pool = append(pool, i)
		}
	}
	// The survivors must determine every real (non-padding) data block:
	// their generator columns, restricted to the real data rows, need
	// full rank. The rank-sufficient subset the elimination picks is the
	// minimal read set.
	var rows []int
	for i := 0; i < c.params.K; i++ {
		if exists[i] {
			rows = append(rows, i)
		}
	}
	chosen := c.independentOnRows(pool, rows)
	if len(chosen) < len(rows) {
		return Plan{}, fmt.Errorf("lrc: block %d unrecoverable: surviving blocks have rank %d < %d", lost, len(chosen), len(rows))
	}
	if deployed {
		return Plan{Reads: pool}, nil
	}
	return Plan{Reads: chosen}, nil
}

// independentOnRows greedily selects columns from pool whose restriction
// to the given generator rows is linearly independent, up to len(rows)
// columns, preferring data columns (they are free copies). It is the one
// rank elimination behind both the repair planner and the heavy decoder.
func (c *Code) independentOnRows(pool, rows []int) []int {
	order := make([]int, 0, len(pool))
	for _, i := range pool {
		if c.kinds[i] == Data {
			order = append(order, i)
		}
	}
	for _, i := range pool {
		if c.kinds[i] != Data {
			order = append(order, i)
		}
	}
	// Incremental Gaussian elimination. byLead[r] is a reduced vector with
	// leading nonzero at position r and zeros before it, so eliminating at
	// position r never reintroduces nonzeros at earlier positions.
	nr := len(rows)
	byLead := make([][]gf.Elem, nr)
	var chosen []int
	f := c.f
	for _, col := range order {
		if len(chosen) == nr {
			break
		}
		v := make([]gf.Elem, nr)
		for ri, r := range rows {
			v[ri] = c.gen.At(r, col)
		}
		inserted := false
		for r := 0; r < nr; r++ {
			if v[r] == 0 {
				continue
			}
			b := byLead[r]
			if b == nil {
				byLead[r] = v
				inserted = true
				break
			}
			coef := f.Div(v[r], b[r])
			for j := r; j < nr; j++ {
				if b[j] != 0 {
					v[j] = f.Add(v[j], f.Mul(coef, b[j]))
				}
			}
		}
		if inserted {
			chosen = append(chosen, col)
		}
	}
	return chosen
}

// ExpectedRepairReads computes, by exhaustive enumeration over all
// erasure patterns of the given size, the expected number of blocks read
// to repair one lost block of a full stripe, under the deployed read-set
// policy. It also returns the fraction of patterns where the light
// decoder handles the designated repair. This feeds the Markov model's
// per-state repair rates (§4: "we determine the probabilities for
// invoking light or heavy decoder and thus compute the expected number of
// blocks to be downloaded").
func (c *Code) ExpectedRepairReads(erasures int) (avgReads float64, lightFraction float64) {
	n := c.nStored
	exists := make([]bool, n)
	for i := range exists {
		exists[i] = true
	}
	var totReads, totLight, patterns float64
	idx := make([]int, erasures)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == erasures {
			avail := make([]bool, n)
			for i := range avail {
				avail[i] = true
			}
			for _, i := range idx {
				avail[i] = false
			}
			// Repair the first lost block (states advance one repair at a
			// time in the Markov chain).
			for _, lost := range idx {
				plan, err := c.PlanRepair(lost, exists, avail, true)
				if err != nil {
					continue
				}
				patterns++
				totReads += float64(len(plan.Reads))
				if plan.Light {
					totLight++
				}
				break
			}
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	if patterns == 0 {
		return 0, 0
	}
	return totReads / patterns, totLight / patterns
}
