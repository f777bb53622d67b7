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
	"bytes"
	"fmt"
	"sync"

	"repro/internal/lrc"
	"repro/internal/rs"
)

// Codec is the stripe-level erasure code the store runs on. The two
// implementations wrap the paper's codes: LRC(10,6,5) via repro/internal/lrc
// and the RS(10,4) baseline via repro/internal/rs.
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
	// it still needs to fetch. The returned slice may be shared with the
	// codec's plan cache (steady-state repair of a dead node re-plans the
	// same erasure pattern for thousands of stripes): callers must treat
	// it as read-only.
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

// planKey identifies one cached repair plan: the lost position plus the
// availability pattern it was planned against.
type planKey struct {
	pos  int
	mask uint64
}

// planEntry is one cached PlanReads result. reads is shared with every
// caller (the Codec contract makes plan read sets read-only).
type planEntry struct {
	reads []int
	light bool
}

// planCache memoizes successful repair plans per (position,
// availability-mask) bitset: repairing a dead node presents the same
// erasure pattern across thousands of stripes, and the rank elimination
// behind each plan is pure overhead after the first solve. Stripes wider
// than 64 blocks bypass the cache (every paper code fits). Unrecoverable
// patterns are not cached — they are rare and re-solving keeps error
// paths simple.
type planCache struct {
	mu sync.RWMutex
	m  map[planKey]planEntry
}

// availMask packs an availability vector into a bitset, ok=false when the
// stripe is too wide to cache.
func availMask(avail []bool) (uint64, bool) {
	if len(avail) > 64 {
		return 0, false
	}
	var m uint64
	for i, a := range avail {
		if a {
			m |= 1 << uint(i)
		}
	}
	return m, true
}

func (pc *planCache) get(pos int, avail []bool) ([]int, bool, bool) {
	mask, ok := availMask(avail)
	if !ok {
		return nil, false, false
	}
	pc.mu.RLock()
	e, hit := pc.m[planKey{pos, mask}]
	pc.mu.RUnlock()
	return e.reads, e.light, hit
}

func (pc *planCache) put(pos int, avail []bool, reads []int, light bool) {
	mask, ok := availMask(avail)
	if !ok {
		return
	}
	pc.mu.Lock()
	if pc.m == nil {
		pc.m = make(map[planKey]planEntry)
	}
	pc.m[planKey{pos, mask}] = planEntry{reads: reads, light: light}
	pc.mu.Unlock()
}

// LRCCodec adapts *lrc.Code to the store. The zero value is unusable; use
// NewLRCCodec or NewXorbasCodec.
type LRCCodec struct {
	c      *lrc.Code
	groups [][]int
	name   string
	exists []bool // all-true mask, built once for the planner
	plans  planCache
}

// NewLRCCodec wraps an LRC.
func NewLRCCodec(c *lrc.Code) *LRCCodec {
	var groups [][]int
	for _, g := range c.Groups() {
		groups = append(groups, g.Members)
	}
	exists := make([]bool, c.NStored())
	for j := range exists {
		exists[j] = true
	}
	p := c.Params()
	return &LRCCodec{
		c:      c,
		groups: groups,
		exists: exists,
		name:   fmt.Sprintf("LRC(%d,%d,%d)", p.K, c.NStored()-p.K, p.GroupSize),
	}
}

// NewXorbasCodec wraps the paper's (10,6,5) code.
func NewXorbasCodec() *LRCCodec { return NewLRCCodec(lrc.NewXorbas()) }

// Name implements Codec.
func (l *LRCCodec) Name() string { return l.name }

// K implements Codec.
func (l *LRCCodec) K() int { return l.c.K() }

// NStored implements Codec.
func (l *LRCCodec) NStored() int { return l.c.NStored() }

// Encode implements Codec.
func (l *LRCCodec) Encode(data [][]byte, workers int) ([][]byte, error) {
	if workers > 1 {
		return l.c.EncodeParallel(data, workers)
	}
	return l.c.Encode(data)
}

// EncodeInto implements Codec.
func (l *LRCCodec) EncodeInto(data, parity [][]byte, workers int) error {
	if workers > 1 {
		return l.c.EncodeIntoParallel(data, parity, workers)
	}
	return l.c.EncodeInto(data, parity)
}

// PlanReads implements Codec via the code's repair planner (minimal read
// policy — the store is the "more efficient implementation" of §3.1.2),
// memoized per (position, availability-mask).
func (l *LRCCodec) PlanReads(i int, avail []bool) ([]int, bool, error) {
	if reads, light, ok := l.plans.get(i, avail); ok {
		return reads, light, nil
	}
	plan, err := l.c.PlanRepair(i, l.exists, avail, false)
	if err != nil {
		return nil, false, err
	}
	l.plans.put(i, avail, plan.Reads, plan.Light)
	return plan.Reads, plan.Light, nil
}

// ReconstructBlock implements Codec.
func (l *LRCCodec) ReconstructBlock(stripe [][]byte, i int) ([]byte, bool, error) {
	return l.c.ReconstructBlock(stripe, i)
}

// ReconstructMany implements Codec: one light pass plus at most one
// shared heavy solve for all requested positions.
func (l *LRCCodec) ReconstructMany(stripe [][]byte, positions []int) ([][]byte, []bool, error) {
	return l.c.ReconstructMany(stripe, positions)
}

// ReconstructManyInto implements Codec.
func (l *LRCCodec) ReconstructManyInto(stripe [][]byte, positions []int, dst [][]byte) ([]bool, []bool, error) {
	return l.c.ReconstructManyInto(stripe, positions, dst)
}

// RepairGroups implements Codec.
func (l *LRCCodec) RepairGroups() [][]int { return l.groups }

// Verify implements Codec.
func (l *LRCCodec) Verify(stripe [][]byte) (bool, error) { return l.c.Verify(stripe) }

// LocateCorruption implements Codec.
func (l *LRCCodec) LocateCorruption(stripe [][]byte) ([]int, error) {
	return l.c.LocateCorruption(stripe)
}

// RSCodec adapts *rs.Code to the store: the baseline with no local
// structure, where every repair reads k blocks.
type RSCodec struct {
	c      *rs.Code
	name   string
	exists []bool // all-true mask, built once for the planner
	plans  planCache
}

// NewRSCodec wraps a Reed-Solomon code.
func NewRSCodec(c *rs.Code) *RSCodec {
	exists := make([]bool, c.N())
	for j := range exists {
		exists[j] = true
	}
	return &RSCodec{c: c, exists: exists, name: fmt.Sprintf("RS(%d,%d)", c.K(), c.N()-c.K())}
}

// NewRS104Codec wraps the paper's RS(10,4) baseline.
func NewRS104Codec() *RSCodec {
	c, err := rs.New256(10, 14)
	if err != nil {
		panic("store: RS(10,4) construction failed: " + err.Error())
	}
	return NewRSCodec(c)
}

// Name implements Codec.
func (r *RSCodec) Name() string { return r.name }

// K implements Codec.
func (r *RSCodec) K() int { return r.c.K() }

// NStored implements Codec.
func (r *RSCodec) NStored() int { return r.c.N() }

// Encode implements Codec. RS has no parallel encoder; the serial path is
// used regardless of workers.
func (r *RSCodec) Encode(data [][]byte, workers int) ([][]byte, error) {
	return r.c.Encode(data)
}

// EncodeInto implements Codec (serial regardless of workers, like Encode).
func (r *RSCodec) EncodeInto(data, parity [][]byte, workers int) error {
	return r.c.EncodeInto(data, parity)
}

// PlanReads implements Codec with the minimal policy: any rank-k subset of
// the available blocks, memoized per (position, availability-mask). light
// is always false — RS repairs are heavy.
func (r *RSCodec) PlanReads(i int, avail []bool) ([]int, bool, error) {
	if reads, _, ok := r.plans.get(i, avail); ok {
		return reads, false, nil
	}
	plan, err := r.c.PlanRepair(i, r.exists, avail, false)
	if err != nil {
		return nil, false, err
	}
	r.plans.put(i, avail, plan.Reads, false)
	return plan.Reads, false, nil
}

// ReconstructBlock implements Codec as a thin wrapper over
// ReconstructMany: only the requested column is decoded (one fused pass
// over k survivors), not the whole stripe.
func (r *RSCodec) ReconstructBlock(stripe [][]byte, i int) ([]byte, bool, error) {
	payloads, _, err := r.ReconstructMany(stripe, []int{i})
	if err != nil {
		return nil, false, err
	}
	return payloads[0], false, nil
}

// ReconstructMany implements Codec via the batched column decoder. RS
// decoding is all-or-nothing (below rank k nothing is recoverable), so
// on error every payload is nil — there is no partial progress to keep.
func (r *RSCodec) ReconstructMany(stripe [][]byte, positions []int) ([][]byte, []bool, error) {
	if len(stripe) != r.c.N() {
		return nil, nil, fmt.Errorf("store: got %d stripe entries, want %d", len(stripe), r.c.N())
	}
	light := make([]bool, len(positions))
	payloads, err := r.c.ReconstructCols(stripe, positions)
	if err != nil {
		return make([][]byte, len(positions)), light, err
	}
	return payloads, light, nil
}

// ReconstructManyInto implements Codec (all-or-nothing, like
// ReconstructMany).
func (r *RSCodec) ReconstructManyInto(stripe [][]byte, positions []int, dst [][]byte) ([]bool, []bool, error) {
	if len(stripe) != r.c.N() {
		return nil, nil, fmt.Errorf("store: got %d stripe entries, want %d", len(stripe), r.c.N())
	}
	filled := make([]bool, len(positions))
	light := make([]bool, len(positions))
	if err := r.c.ReconstructColsInto(stripe, positions, dst); err != nil {
		return filled, light, err
	}
	for i := range filled {
		filled[i] = true
	}
	return filled, light, nil
}

// RepairGroups implements Codec: RS stripes have no repair groups, so
// placement only spreads blocks across distinct nodes and racks.
func (r *RSCodec) RepairGroups() [][]int { return nil }

// Verify implements Codec.
func (r *RSCodec) Verify(stripe [][]byte) (bool, error) { return r.c.Verify(stripe) }

// LocateCorruption implements Codec by trial re-reconstruction: block j is
// corrupted if rebuilding it from the others changes it and the repaired
// stripe then verifies. Only single-block corruption is pinned exactly;
// wider damage reports every inconsistent candidate.
func (r *RSCodec) LocateCorruption(stripe [][]byte) ([]int, error) {
	n := r.c.N()
	if len(stripe) != n {
		return nil, fmt.Errorf("store: got %d stripe entries, want %d", len(stripe), n)
	}
	for i, s := range stripe {
		if s == nil {
			return nil, fmt.Errorf("store: block %d missing; LocateCorruption needs a full stripe", i)
		}
	}
	if ok, err := r.c.Verify(stripe); err != nil {
		return nil, err
	} else if ok {
		return nil, nil
	}
	var corrupted []int
	for j := 0; j < n; j++ {
		work := make([][]byte, n)
		copy(work, stripe)
		work[j] = nil
		rebuilt, _, err := r.ReconstructBlock(work, j)
		if err != nil {
			continue
		}
		if !bytes.Equal(rebuilt, stripe[j]) {
			work[j] = rebuilt
			if ok, err := r.c.Verify(work); err == nil && ok {
				corrupted = append(corrupted, j)
			}
		}
	}
	if len(corrupted) == 0 {
		// Beyond single-block localization: every block is suspect.
		for j := 0; j < n; j++ {
			corrupted = append(corrupted, j)
		}
	}
	return corrupted, nil
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
