// Package store is a byte-level striped object store layered on the
// paper's codecs: the real datapath counterpart to the fluid simulation in
// repro/internal/cluster. Objects are chunked into k-block stripes,
// erasure-coded, checksummed and spread over simulated nodes under
// rack-aware placement; reads survive node loss and silent corruption by
// reconstructing blocks inline (degraded reads, §1.1), and a background
// scrubber plus a prioritized repair queue play the role of the HDFS-Xorbas
// BlockFixer (§3). Every read is accounted in blocks and bytes so the
// paper's locality win — light repairs reading r=5 blocks where RS reads
// k=10 (Figs 4–6) — is observable on real traffic.
package store

import (
	"fmt"

	"repro/internal/lrc"
)

// Codec is the stripe-level erasure code the store runs on. There is one
// implementation, an adapter over *lrc.Code: NewXorbasCodec builds the
// paper's LRC(10,6,5) and NewRS104Codec the RS(10,4) baseline — the same
// code type with no local parities — so both codes encode, plan and decode
// through the same functions, and the light-or-heavy decision is made by
// lrc.Code.PlanRepair, which the simulator's hdfs.FS calls too.
type Codec interface {
	// Name identifies the codec in reports and snapshots.
	Name() string
	// K is the number of data blocks per stripe.
	K() int
	// NStored is the number of stored blocks per stripe.
	NStored() int
	// Encode computes the full stored stripe from K equal-length data
	// blocks. workers parallelizes parity computation; ≤1 is serial.
	Encode(data [][]byte, workers int) ([][]byte, error)
	// EncodeInto computes the NStored−K parity payloads directly into the
	// caller's buffers, overwriting any stale contents — the streaming
	// put path, which encodes parities straight into reusable framed
	// block buffers with no per-stripe allocation. parity[j] is stored
	// block K+j and must have the data blocks' length.
	EncodeInto(data, parity [][]byte, workers int) error
	// PlanReads returns the stripe positions to fetch so block i can be
	// rebuilt, given avail[j] marking positions believed readable, and
	// whether the light (local) decoder suffices. Positions already held
	// by the caller are included in the read set; the caller decides what
	// it still needs to fetch. Each call computes a fresh plan: the
	// returned slice belongs to the caller.
	PlanReads(i int, avail []bool) (reads []int, light bool, err error)
	// ReconstructBlock rebuilds block i from the non-nil stripe entries,
	// reporting whether the light decoder sufficed. The stripe is not
	// modified.
	ReconstructBlock(stripe [][]byte, i int) (payload []byte, light bool, err error)
	// ReconstructMany rebuilds every requested position from the non-nil
	// stripe entries in one batched decode pass, without modifying the
	// stripe. payloads is aligned with positions (a nil entry could not
	// be rebuilt) and light[i] reports whether the light decoder rebuilt
	// payloads[i]. err is non-nil when any position failed; rebuildable
	// payloads are still returned (the partial progress a repair worker
	// persists on an unrecoverable stripe).
	ReconstructMany(stripe [][]byte, positions []int) (payloads [][]byte, light []bool, err error)
	// ReconstructManyInto is ReconstructMany decoding into the caller's
	// buffers: dst is aligned with positions, each entry sized to the
	// stripe's block length, stale contents overwritten and never read.
	// filled[i] reports whether dst[i] now holds the rebuilt payload —
	// the repair engine's zero-allocation path, decoding straight into
	// reusable framed block slabs. dst entries must not alias each other
	// or the stripe.
	ReconstructManyInto(stripe [][]byte, positions []int, dst [][]byte) (filled, light []bool, err error)
	// RepairGroups returns the repair groups for placement: no two members
	// of one group should share a rack, so a rack loss costs each group at
	// most one block. nil means the codec has no local structure.
	RepairGroups() [][]int
	// Verify reports whether a full stripe (all entries non-nil) is
	// self-consistent.
	Verify(stripe [][]byte) (bool, error)
	// LocateCorruption pins silently corrupted blocks in a full stripe.
	LocateCorruption(stripe [][]byte) ([]int, error)
}

// codec adapts *lrc.Code to the store.
type codec struct {
	c      *lrc.Code
	groups [][]int
	name   string
	exists []bool // all-true mask, built once for the planner
}

// newCodec wraps a code. The name is what the metadata plane records and
// codecByName reads back: "RS(k,p)" without local parities, else
// "LRC(k,parities,r)".
func newCodec(c *lrc.Code) *codec {
	var groups [][]int
	for _, g := range c.Groups() {
		groups = append(groups, g.Members)
	}
	exists := make([]bool, c.NStored())
	for j := range exists {
		exists[j] = true
	}
	p := c.Params()
	name := fmt.Sprintf("LRC(%d,%d,%d)", p.K, c.NStored()-p.K, p.GroupSize)
	if p.GroupSize == 0 {
		name = fmt.Sprintf("RS(%d,%d)", p.K, p.GlobalParities)
	}
	return &codec{c: c, groups: groups, exists: exists, name: name}
}

// NewXorbasCodec returns the paper's LRC(10,6,5).
func NewXorbasCodec() Codec { return newCodec(lrc.NewXorbas()) }

// NewRS104Codec returns the paper's RS(10,4) baseline: every repair is
// heavy and reads k blocks.
func NewRS104Codec() Codec { return newCodec(lrc.NewRS104()) }

// Name implements Codec.
func (l *codec) Name() string { return l.name }

// K implements Codec.
func (l *codec) K() int { return l.c.K() }

// NStored implements Codec.
func (l *codec) NStored() int { return l.c.NStored() }

// Encode implements Codec.
func (l *codec) Encode(data [][]byte, workers int) ([][]byte, error) {
	if workers > 1 {
		return l.c.EncodeParallel(data, workers)
	}
	return l.c.Encode(data)
}

// EncodeInto implements Codec.
func (l *codec) EncodeInto(data, parity [][]byte, workers int) error {
	if workers > 1 {
		return l.c.EncodeIntoParallel(data, parity, workers)
	}
	return l.c.EncodeInto(data, parity)
}

// PlanReads implements Codec via the code's repair planner (minimal read
// policy — the store is the "more efficient implementation" of §3.1.2).
func (l *codec) PlanReads(i int, avail []bool) ([]int, bool, error) {
	plan, err := l.c.PlanRepair(i, l.exists, avail, false)
	if err != nil {
		return nil, false, err
	}
	return plan.Reads, plan.Light, nil
}

// ReconstructBlock implements Codec.
func (l *codec) ReconstructBlock(stripe [][]byte, i int) ([]byte, bool, error) {
	return l.c.ReconstructBlock(stripe, i)
}

// ReconstructMany implements Codec: one light pass plus at most one
// shared heavy solve for all requested positions.
func (l *codec) ReconstructMany(stripe [][]byte, positions []int) ([][]byte, []bool, error) {
	return l.c.ReconstructMany(stripe, positions)
}

// ReconstructManyInto implements Codec.
func (l *codec) ReconstructManyInto(stripe [][]byte, positions []int, dst [][]byte) ([]bool, []bool, error) {
	return l.c.ReconstructManyInto(stripe, positions, dst)
}

// RepairGroups implements Codec.
func (l *codec) RepairGroups() [][]int { return l.groups }

// Verify implements Codec.
func (l *codec) Verify(stripe [][]byte) (bool, error) { return l.c.Verify(stripe) }

// LocateCorruption implements Codec.
func (l *codec) LocateCorruption(stripe [][]byte) ([]int, error) {
	return l.c.LocateCorruption(stripe)
}

// codecByName maps a geometry record's codec name back to a built-in
// codec — how New reopens a plane when Config.Codec is left nil.
func codecByName(name string) (Codec, error) {
	switch name {
	case "LRC(10,6,5)":
		return NewXorbasCodec(), nil
	case "RS(10,4)":
		return NewRS104Codec(), nil
	}
	return nil, fmt.Errorf("%w: plane was created with codec %s, which is not built in; pass it as Config.Codec", ErrGeometryMismatch, name)
}
