package store

// Rack-aware placement. HDFS-Xorbas places the 16 blocks of a stripe so
// that no two blocks of one repair group share a rack (rack = node mod
// racks): a whole-rack loss then costs each group at most one block, which the light decoder
// repairs from r=5 reads. When the topology is too small for the strict
// rule the placer degrades gracefully: distinct nodes per stripe, then
// distinct nodes per repair group, then any live node.

// placer assigns stripe positions to nodes. The node count is not baked
// in: every method takes the eligible-node vector, whose length is the
// topology of record (elastic membership grows it at runtime).
type placer struct {
	racks int
	// groupOf[pos] is the repair-group id of stripe position pos, or -1
	// when the codec has no local structure (RS): each position is then
	// its own group and only node/stripe-level spreading applies.
	groupOf []int
	nStored int
}

func newPlacer(codec Codec, racks int) *placer {
	p := &placer{racks: racks, nStored: codec.NStored()}
	p.groupOf = make([]int, p.nStored)
	for i := range p.groupOf {
		p.groupOf[i] = -1
	}
	for gi, members := range codec.RepairGroups() {
		for _, m := range members {
			p.groupOf[m] = gi
		}
	}
	return p
}

// rackOf assigns racks round-robin.
func (p *placer) rackOf(node int) int { return node % p.racks }

// place assigns every stripe position to a node that keeps blocks.
// stripeSeq rotates the scan start so load spreads across stripes.
// members is the membership snapshot — its length is the topology of
// record (membership may have grown it past the construction-time node
// count); at least one member must keep blocks.
func (p *placer) place(stripeSeq int, members []MemberInfo) []int {
	assigned := make([]int, p.nStored)
	usedNode := make(map[int]bool, p.nStored)
	// groupRacks[g] marks racks already holding a block of group g;
	// groupNodes[g] likewise for nodes.
	groupRacks := make(map[int]map[int]bool)
	groupNodes := make(map[int]map[int]bool)
	for pos := 0; pos < p.nStored; pos++ {
		assigned[pos] = p.pick(stripeSeq, pos, members, usedNode, groupRacks, groupNodes)
	}
	return assigned
}

// pickReplacement chooses a node for one rebuilt block given the rest of
// the stripe's current assignment (nodes[pos] == -1 for the slot being
// re-placed; dead-node slots should also be -1 so their racks don't
// constrain the choice).
func (p *placer) pickReplacement(stripeSeq, pos int, nodes []int, members []MemberInfo) int {
	usedNode := make(map[int]bool)
	groupRacks := make(map[int]map[int]bool)
	groupNodes := make(map[int]map[int]bool)
	for q, n := range nodes {
		if q == pos || n < 0 {
			continue
		}
		usedNode[n] = true
		if g := p.groupOf[q]; g >= 0 {
			markGroup(groupRacks, g, p.rackOf(n))
			markGroup(groupNodes, g, n)
		}
	}
	return p.pick(stripeSeq, pos, members, usedNode, groupRacks, groupNodes)
}

func markGroup(m map[int]map[int]bool, g, v int) {
	if m[g] == nil {
		m[g] = make(map[int]bool)
	}
	m[g][v] = true
}

// pick scans live nodes from a rotating offset, at relaxation level 0
// requiring (fresh node for the stripe) ∧ (fresh rack for the group),
// then dropping the rack rule (fresh node for the stripe), then the
// stripe rule too (fresh node for the group — a node loss still costs
// each group at most one block), and finally accepting any live node.
func (p *placer) pick(stripeSeq, pos int, members []MemberInfo, usedNode map[int]bool, groupRacks, groupNodes map[int]map[int]bool) int {
	g := p.groupOf[pos]
	// len(members), not the construction-time count: elastic membership
	// grows the node set after the placer is built.
	nn := len(members)
	if nn == 0 {
		return -1
	}
	start := (stripeSeq*p.nStored + pos) % nn
	for relax := 0; ; relax++ {
		for off := 0; off < nn; off++ {
			n := (start + off) % nn
			if !members[n].keeps() {
				continue
			}
			switch relax {
			case 0:
				if usedNode[n] || (g >= 0 && groupRacks[g][p.rackOf(n)]) {
					continue
				}
			case 1:
				if usedNode[n] {
					continue
				}
			case 2:
				if g >= 0 && groupNodes[g][n] {
					continue
				}
			}
			usedNode[n] = true
			if g >= 0 {
				markGroup(groupRacks, g, p.rackOf(n))
				markGroup(groupNodes, g, n)
			}
			return n
		}
		if relax >= 3 {
			return -1 // no live node at all; callers guard against this
		}
	}
}
