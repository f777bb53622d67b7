package lrc

import (
	"bytes"
	"fmt"

	"repro/internal/gf"
)

// Scrubbing support. The BlockFixer also handles *corrupted* (not just
// missing) blocks (§3: "periodically checks for lost or corrupted
// blocks"). An LRC's local parities double as group checksums: each
// repair group satisfies one linear equation (Σ c_i·member_i = 0 in the
// homogeneous form), so a scrubber can verify a group by reading only
// its r+1 members instead of decoding the whole stripe, and a single
// corrupted block is localized to the unique group whose syndrome is
// nonzero — one more operational win of locality.

// GroupSyndrome computes the group's parity equation over the payloads:
// zero everywhere iff the group's blocks are mutually consistent. All
// member blocks must be present. For the implied parity group the
// equation is Σ P_j + Σ S_g = 0 (Eq. (2) rearranged).
func (c *Code) GroupSyndrome(stripe [][]byte, group int) ([]byte, error) {
	if len(stripe) != c.nStored {
		return nil, fmt.Errorf("lrc: got %d stripe entries, want %d", len(stripe), c.nStored)
	}
	if group < 0 || group >= len(c.groups) {
		return nil, fmt.Errorf("lrc: group %d out of range", group)
	}
	g := c.groups[group]
	// Use the light recipe of the group's first member: member = Σ
	// coef·reads ⇒ syndrome = 1·member + Σ coef·reads, one pass.
	anchor := g.Members[0]
	r := c.recipes[anchor]
	if r == nil {
		return nil, fmt.Errorf("lrc: group %d has no parity equation", group)
	}
	srcs := make([][]byte, 0, 1+len(r.reads))
	for _, j := range append([]int{anchor}, r.reads...) {
		if stripe[j] == nil {
			return nil, fmt.Errorf("lrc: block %d missing; syndrome needs the full group", j)
		}
		if len(srcs) > 0 && len(stripe[j]) != len(srcs[0]) {
			return nil, fmt.Errorf("lrc: block %d size mismatch", j)
		}
		srcs = append(srcs, stripe[j])
	}
	syn := make([]byte, len(srcs[0]))
	c.f.DotSlices(append([]gf.Elem{1}, r.coefs...), syn, srcs)
	return syn, nil
}

// zeroSyndrome reports whether the syndrome is all zero.
func zeroSyndrome(s []byte) bool {
	for _, b := range s {
		if b != 0 {
			return false
		}
	}
	return true
}

// LocateCorruption scans a full stripe for silent corruption. It returns
// the indices of corrupted blocks, localized as precisely as the code
// structure allows:
//
//   - a single corrupted block is pinned exactly (its group's syndrome
//     fires; cross-checking against the full re-encode identifies the
//     block);
//   - multiple corruptions are reported as the union of suspicious
//     blocks from all firing groups.
//
// All blocks must be present (scrubbing reads everything; this is the
// integrity pass, not the erasure decoder).
func (c *Code) LocateCorruption(stripe [][]byte) ([]int, error) {
	if len(stripe) != c.nStored {
		return nil, fmt.Errorf("lrc: got %d stripe entries, want %d", len(stripe), c.nStored)
	}
	for i, s := range stripe {
		if s == nil {
			return nil, fmt.Errorf("lrc: block %d missing; LocateCorruption needs a full stripe", i)
		}
	}
	// A stripe that re-encodes to itself is clean, as nearly every
	// stripe a scrub checks is. The re-encode goes first and computes
	// into the code's scratch pool, so a clean stripe allocates no block.
	if ok, err := c.Verify(stripe); err != nil || ok {
		return nil, err
	}
	// Group-level triage: which groups fire?
	var firing []int
	for gi := range c.groups {
		syn, err := c.GroupSyndrome(stripe, gi)
		if err != nil {
			return nil, err
		}
		if !zeroSyndrome(syn) {
			firing = append(firing, gi)
		}
	}
	// Pin down blocks: recompute the full stripe from the data blocks
	// and compare. If a *data* block is corrupted the re-encode won't
	// match it directly, so instead try, for each suspicious block,
	// rebuilding it from the rest and testing whether the repaired
	// stripe becomes fully consistent.
	suspects := map[int]bool{}
	for _, gi := range firing {
		for _, m := range c.groups[gi].Members {
			suspects[m] = true
		}
		if c.groups[gi].Implied {
			for j := 0; j < c.nStored; j++ {
				if c.kinds[j] == LocalParity {
					suspects[j] = true
				}
			}
		}
	}
	if len(firing) == 0 {
		for j := 0; j < c.nStored; j++ {
			suspects[j] = true
		}
	}
	var corrupted []int
	for j := 0; j < c.nStored; j++ {
		if !suspects[j] {
			continue
		}
		work := make([][]byte, c.nStored)
		copy(work, stripe)
		work[j] = nil
		rebuilt, _, err := c.ReconstructBlock(work, j)
		if err != nil {
			continue
		}
		if !bytes.Equal(rebuilt, stripe[j]) {
			// Rebuilding j from the others changed it — but that also
			// happens when a *source* of the rebuild is corrupted. Accept
			// j only if replacing it makes the whole stripe consistent.
			work[j] = rebuilt
			if ok, err := c.Verify(work); err == nil && ok {
				corrupted = append(corrupted, j)
			}
		}
	}
	if len(corrupted) == 0 {
		// Multi-block corruption beyond single-block localization: report
		// every member of the firing groups.
		for j := 0; j < c.nStored; j++ {
			if suspects[j] {
				corrupted = append(corrupted, j)
			}
		}
	}
	return corrupted, nil
}
