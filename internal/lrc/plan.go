package lrc

import (
	"fmt"
	"sort"

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
	if r := c.recipes[lost]; r != nil {
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

// RepairStats is what the next repair costs, averaged over the erasure
// patterns of one size on a full stripe from which some block is still
// recoverable.
type RepairStats struct {
	// AvgReads is the expected number of blocks the next repair streams
	// in, when the BlockFixer repairs the cheapest (light-first) lost
	// block next.
	AvgReads float64
	// LightFraction is the probability that the next repair is light.
	LightFraction float64
	// AvgParallel is the expected number of lost blocks whose minimal
	// read sets are pairwise disjoint and avoid the other losses: repairs
	// that can run concurrently without sharing source links. LRC light
	// repairs in different groups are disjoint; any two repairs of a code
	// without local parities contend for the same sources, so it stays 1
	// there.
	AvgParallel float64
}

// RepairStats enumerates every pattern of the given number of erasures on
// a full stripe and aggregates the cost of the next repair, with AvgReads
// planned under the deployed or minimal read-set policy (see PlanRepair).
// Patterns from which no block is recoverable are skipped: they are the
// Markov chain's absorbing state. This is the model's per-state repair
// input (§4: "we determine the probabilities for invoking light or heavy
// decoder and thus compute the expected number of blocks to be
// downloaded"). Cost is C(NStored, erasures) patterns.
func (c *Code) RepairStats(erasures int, deployed bool) RepairStats {
	n := c.nStored
	exists := make([]bool, n)
	for i := range exists {
		exists[i] = true
	}
	var totReads, totLight, totPar, patterns float64
	idx := make([]int, erasures)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth < erasures {
			for i := start; i < n; i++ {
				idx[depth] = i
				rec(i+1, depth+1)
			}
			return
		}
		avail := make([]bool, n)
		for i := range avail {
			avail[i] = true
		}
		for _, i := range idx {
			avail[i] = false
		}
		bestReads, bestLight, found := 0, false, false
		for _, lost := range idx {
			p, err := c.PlanRepair(lost, exists, avail, deployed)
			if err != nil {
				continue
			}
			if reads := len(p.Reads); !found || reads < bestReads || (p.Light && !bestLight && reads <= bestReads) {
				bestReads, bestLight, found = reads, p.Light, true
			}
		}
		if !found {
			return
		}
		patterns++
		totReads += float64(bestReads)
		if bestLight {
			totLight++
		}
		totPar += float64(c.disjointRepairs(idx, exists, avail))
	}
	rec(0, 0)
	if patterns == 0 {
		return RepairStats{}
	}
	return RepairStats{
		AvgReads:      totReads / patterns,
		LightFraction: totLight / patterns,
		AvgParallel:   totPar / patterns,
	}
}

// disjointRepairs counts, greedily and cheapest-first, how many of the
// lost blocks have minimal repair plans whose read sets are pairwise
// disjoint and avoid the other losses. At least 1 when any repair exists.
func (c *Code) disjointRepairs(lost []int, exists, avail []bool) int {
	var plans [][]int
	for _, b := range lost {
		if p, err := c.PlanRepair(b, exists, avail, false); err == nil {
			plans = append(plans, p.Reads)
		}
	}
	if len(plans) == 0 {
		return 0
	}
	sort.SliceStable(plans, func(i, j int) bool { return len(plans[i]) < len(plans[j]) })
	used := make(map[int]bool)
	count := 0
next:
	for _, reads := range plans {
		for _, r := range reads {
			if used[r] {
				continue next
			}
		}
		count++
		for _, r := range reads {
			used[r] = true
		}
	}
	return max(count, 1)
}
