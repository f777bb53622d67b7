// Package core is the public facade of the library: a single Scheme
// abstraction unifying the three storage schemes the paper compares —
// 3-way replication, Reed-Solomon RS(10,4), and the Xorbas LRC(10,6,5).
//
// A Scheme answers the questions the reliability model (Section 4) and the
// cluster simulator (Section 5) ask of a storage code: how many blocks a
// stripe stores for a given file size, which failures it tolerates, and
// what a repair must read. There are two implementations: Replication, and
// Coded, the one adapter over *lrc.Code that serves every erasure code —
// RS(10,4) is that code type with no local parities — so the simulator's
// light-or-heavy decision is made by lrc.Code.PlanRepair, the same
// function the object store's codec adapter calls.
package core

import (
	"fmt"

	"repro/internal/lrc"
)

// Scheme models a redundancy scheme at stripe granularity.
type Scheme interface {
	// Name identifies the scheme in reports, e.g. "LRC (10,6,5)".
	Name() string
	// DataBlocks returns k, the data blocks of a full stripe.
	DataBlocks() int
	// Slots returns the stripe positions a full stripe stores
	// (3 for replication, 14 for RS(10,4), 16 for LRC(10,6,5)).
	Slots() int
	// Exists reports whether position pos is physically stored in a
	// stripe holding dataCount ≤ k real data blocks (zero-padded stripes
	// of §3.1.1 store fewer blocks).
	Exists(pos, dataCount int) bool
	// StoredCount returns the number of stored blocks for dataCount real
	// data blocks.
	StoredCount(dataCount int) int
	// StorageOverhead returns extra storage per byte of data for a full
	// stripe: 2.0 for 3-replication, 0.4 for RS(10,4), 0.6 for LRC
	// (Table 1).
	StorageOverhead() float64
	// FailuresTolerated returns d−1: the erasures any full stripe
	// survives (2 for replication, 4 for both coded schemes).
	FailuresTolerated() int
	// PlanRepair returns the positions read to repair block lost, and
	// whether the light (local) decoder sufficed. deployed selects the
	// deployed read-set policy (all streams) versus minimal.
	PlanRepair(lost int, exists, avail []bool, deployed bool) (reads []int, light bool, err error)
}

// Replication is n-way block replication (the cluster default, §1).
type Replication struct {
	// Factor is the number of copies (3 at Facebook).
	Factor int
}

// NewReplication returns an n-way replication scheme.
func NewReplication(factor int) (Replication, error) {
	if factor < 2 {
		return Replication{}, fmt.Errorf("core: replication factor %d < 2", factor)
	}
	return Replication{Factor: factor}, nil
}

// Name implements Scheme.
func (r Replication) Name() string { return fmt.Sprintf("%d-replication", r.Factor) }

// DataBlocks implements Scheme: a replication "stripe" is one block.
func (r Replication) DataBlocks() int { return 1 }

// Slots implements Scheme.
func (r Replication) Slots() int { return r.Factor }

// Exists implements Scheme: every copy always exists.
func (r Replication) Exists(pos, dataCount int) bool { return pos >= 0 && pos < r.Factor }

// StoredCount implements Scheme.
func (r Replication) StoredCount(dataCount int) int { return r.Factor }

// StorageOverhead implements Scheme: 2.0 for 3 copies (Table 1).
func (r Replication) StorageOverhead() float64 { return float64(r.Factor - 1) }

// FailuresTolerated implements Scheme.
func (r Replication) FailuresTolerated() int { return r.Factor - 1 }

// PlanRepair implements Scheme: read any surviving copy.
func (r Replication) PlanRepair(lost int, exists, avail []bool, deployed bool) ([]int, bool, error) {
	if len(exists) != r.Factor || len(avail) != r.Factor {
		return nil, false, fmt.Errorf("core: masks must have %d entries", r.Factor)
	}
	if lost < 0 || lost >= r.Factor {
		return nil, false, fmt.Errorf("core: bad copy index %d", lost)
	}
	for i := 0; i < r.Factor; i++ {
		if i != lost && avail[i] {
			return []int{i}, true, nil
		}
	}
	return nil, false, fmt.Errorf("core: all %d copies lost", r.Factor)
}

// Coded wraps an erasure code as a Scheme.
type Coded struct {
	code *lrc.Code
	d    int // exact minimum distance, computed once
}

// NewCoded wraps an existing payload-level code.
func NewCoded(c *lrc.Code) *Coded {
	return &Coded{code: c, d: c.MinDistance()}
}

// NewRS104 returns the production RS(10,4) scheme (14 stored blocks).
func NewRS104() *Coded { return NewCoded(lrc.NewRS104()) }

// NewXorbas returns the paper's LRC (10, 6, 5) scheme.
func NewXorbas() *Coded { return NewCoded(lrc.NewXorbas()) }

// Code exposes the payload-level code.
func (s *Coded) Code() *lrc.Code { return s.code }

// Name implements Scheme: "RS (10, 4)" for a code without local
// parities, "LRC (10, 6, 5)" — k, parities, locality — otherwise.
func (s *Coded) Name() string {
	k, parities := s.code.K(), s.code.NStored()-s.code.K()
	if s.code.Params().GroupSize == 0 {
		return fmt.Sprintf("RS (%d, %d)", k, parities)
	}
	return fmt.Sprintf("LRC (%d, %d, %d)", k, parities, s.code.Locality())
}

// DataBlocks implements Scheme.
func (s *Coded) DataBlocks() int { return s.code.K() }

// Slots implements Scheme.
func (s *Coded) Slots() int { return s.code.NStored() }

// Exists implements Scheme: data blocks beyond dataCount are zero padding
// and not stored, nor is a local parity whose whole group is padding.
func (s *Coded) Exists(pos, dataCount int) bool {
	if pos < 0 || pos >= s.code.NStored() {
		return false
	}
	return s.code.Exists(pos, dataCount)
}

// StoredCount implements Scheme.
func (s *Coded) StoredCount(dataCount int) int { return s.code.StoredCount(dataCount) }

// StorageOverhead implements Scheme.
func (s *Coded) StorageOverhead() float64 { return s.code.StorageOverhead() }

// FailuresTolerated implements Scheme: d−1 with the exact enumerated
// minimum distance (4 for both RS(10,4) and Xorbas).
func (s *Coded) FailuresTolerated() int { return s.d - 1 }

// PlanRepair implements Scheme.
func (s *Coded) PlanRepair(lost int, exists, avail []bool, deployed bool) ([]int, bool, error) {
	p, err := s.code.PlanRepair(lost, exists, avail, deployed)
	if err != nil {
		return nil, false, err
	}
	return p.Reads, p.Light, nil
}
