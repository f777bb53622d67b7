package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latBuckets is LatencyHist's bucket count: 40 factor-of-two buckets
// span sub-microsecond to around six days.
const latBuckets = 40

// LatencyHist is a cumulative log2-bucketed latency histogram, lock-free
// for hot paths: an observation lands in the bucket indexed by the bit
// length of its latency in microseconds, so bucket i holds [2^(i-1), 2^i)
// µs. The zero value is ready. It backs the store's hedge trigger
// (block-read latency) and the gateway's per-verb /metrics quantiles.
type LatencyHist struct {
	buckets [latBuckets]atomic.Int64
	count   atomic.Int64
}

// Observe records one latency; negative durations count as zero.
func (h *LatencyHist) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
}

// Count returns how many latencies have been observed.
func (h *LatencyHist) Count() int64 { return h.count.Load() }

// Quantile returns the upper edge of the bucket holding the q-quantile
// observation, the one at zero-based rank ⌊q·n⌋ — the hedge trigger's
// convention: p90 of ten reads is the slowest, so one straggler in ten
// does not arm the trigger on itself. 0 when nothing has been observed.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	return h.AtRank(int64(q*float64(h.count.Load())) + 1)
}

// AtRank returns the upper edge of the bucket holding the rank-th
// fastest observation (one-based, clamped to [1, Count]), 0 when nothing
// has been observed. Factor-of-two coarse, and it rounds up, never down:
// an overestimate by at most 2× is the right bias both for a hedge
// trigger (fire late rather than storm the backend) and for reported
// tails. Callers that need their own rank rounding (the gateway's
// /metrics uses round-half-up) pass the rank; Quantile is the common
// rule.
func (h *LatencyHist) AtRank(rank int64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank = min(max(rank, 1), total)
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	// Only reachable while a concurrent Observe has bumped count but not
	// yet its bucket: the observation exists, so report the top edge.
	return time.Duration(uint64(1)<<uint(latBuckets-1)) * time.Microsecond
}
