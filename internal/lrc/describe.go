package lrc

import (
	"fmt"
	"strings"
)

// Name identifies the code in reports: "LRC (10, 6, 5)" — k, parities,
// locality — for a code with local parities, "RS (10, 4)" for one
// without, and "3-replication" for the k = 1 code without, whose every
// stored block is a scaled copy of the single data block.
func (c *Code) Name() string {
	k, parities := c.params.K, c.nStored-c.params.K
	switch {
	case c.params.GroupSize != 0:
		return fmt.Sprintf("LRC (%d, %d, %d)", k, parities, c.Locality())
	case k == 1:
		return fmt.Sprintf("%d-replication", c.nStored)
	}
	return fmt.Sprintf("RS (%d, %d)", k, parities)
}

// Describe renders the code layout in the style of Fig. 2: the data
// blocks, the Reed-Solomon parities, the local parities with their
// repair groups, and the implied parity with its alignment identity.
func (c *Code) Describe() string {
	var b strings.Builder
	p := c.params
	fmt.Fprintf(&b, "(%d, %d, %d) code over GF(2^%d): %d stored blocks, %.0f%% storage overhead\n",
		p.K, c.nStored-p.K, c.Locality(), c.f.M(), c.nStored, 100*c.StorageOverhead())
	row := func(label string, from, to int) {
		fmt.Fprintf(&b, "  %-16s", label)
		for i := from; i < to; i++ {
			fmt.Fprintf(&b, " %s", c.blockName(i))
		}
		b.WriteByte('\n')
	}
	// Blocks by kind, in position order.
	var dataEnd, parityStart int
	for i := 0; i < c.nStored; i++ {
		switch c.kinds[i] {
		case Data:
			dataEnd = i + 1
		case GlobalParity:
			if parityStart == 0 {
				parityStart = i
			}
		}
	}
	row("data blocks:", 0, dataEnd)
	_ = parityStart
	var globals, locals []string
	for i := 0; i < c.nStored; i++ {
		switch c.kinds[i] {
		case GlobalParity:
			globals = append(globals, c.blockName(i))
		case LocalParity:
			locals = append(locals, c.blockName(i))
		}
	}
	fmt.Fprintf(&b, "  %-16s %s\n", "RS parities:", strings.Join(globals, " "))
	fmt.Fprintf(&b, "  %-16s %s\n", "local parities:", strings.Join(locals, " "))
	for gi, g := range c.groups {
		names := make([]string, len(g.Members))
		for i, m := range g.Members {
			names[i] = c.blockName(m)
		}
		suffix := ""
		if g.Implied {
			suffix = "  (local parity implied: " + c.impliedIdentity() + ")"
		}
		fmt.Fprintf(&b, "  group %d: {%s}%s\n", gi, strings.Join(names, ", "), suffix)
	}
	return b.String()
}

// blockName labels a stored block like the paper: X1…Xk for data,
// P1…Pp for RS parities, S1…Sg for local parities.
func (c *Code) blockName(i int) string {
	switch c.kinds[i] {
	case Data:
		return fmt.Sprintf("X%d", i+1)
	case GlobalParity:
		n := 0
		for j := 0; j <= i; j++ {
			if c.kinds[j] == GlobalParity {
				n++
			}
		}
		return fmt.Sprintf("P%d", n)
	case LocalParity:
		n := 0
		for j := 0; j <= i; j++ {
			if c.kinds[j] == LocalParity {
				n++
			}
		}
		return fmt.Sprintf("S%d", n)
	}
	return fmt.Sprintf("B%d", i)
}

// impliedIdentity renders the alignment identity, e.g. "S1+S2+S3 = 0"
// with S3 = P1+…+P4 never stored.
func (c *Code) impliedIdentity() string {
	var stored []string
	n := 0
	for i := 0; i < c.nStored; i++ {
		if c.kinds[i] == LocalParity {
			n++
			stored = append(stored, fmt.Sprintf("S%d", n))
		}
	}
	return fmt.Sprintf("%s+S%d = 0", strings.Join(stored, "+"), n+1)
}
