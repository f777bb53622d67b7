package stats

import (
	"testing"
	"time"
)

// TestLatencyHistQuantile covers what both callers rely on. The hedge
// trigger needs Quantile never to undershoot the observation it names
// (firing early storms the backend), to keep its zero-based ⌊q·n⌋ rank
// and to be 0 while cold; /metrics needs whole-microsecond bucket edges,
// which it prints as milliseconds, at a rank it rounds itself (AtRank;
// the gateway's own table pins that rounding against the old output).
func TestLatencyHistQuantile(t *testing.T) {
	us, ms := time.Microsecond, time.Millisecond
	for _, c := range []struct {
		name string
		obs  []time.Duration
		q    float64
		want time.Duration
	}{
		{"cold", nil, 0.9, 0},
		{"zero and negative share bucket 0", []time.Duration{0, -time.Second}, 0.99, 1 * us},
		{"bucket i is [2^(i-1), 2^i) µs", []time.Duration{1 * us}, 0.5, 2 * us},
		{"upper edge, never below the observation", []time.Duration{3 * ms}, 0.5, 4096 * us},
		{"exact power of two rounds up to the next edge", []time.Duration{1024 * us}, 0.5, 2048 * us},
		{"rank floor(q·n): p50 of two is the upper one", []time.Duration{10 * us, 900 * us}, 0.5, 1024 * us},
		{"p90 of ten skips nine fast reads", append(repeat(9, 100*us), 50*ms), 0.9, 65536 * us},
		{"p89 of ten does not", append(repeat(9, 100*us), 50*ms), 0.89, 128 * us},
		{"p99 of a hundred is the slowest", append(repeat(99, 100*us), 50*ms), 0.99, 65536 * us},
		{"q=1 clamps to the last observation", []time.Duration{10 * us, 900 * us}, 1, 1024 * us},
		{"overflow lands in the top bucket", []time.Duration{1 << 62}, 0.5, (1 << 39) * us},
	} {
		var h LatencyHist
		for _, d := range c.obs {
			h.Observe(d)
		}
		if h.Count() != int64(len(c.obs)) {
			t.Fatalf("%s: Count() = %d, want %d", c.name, h.Count(), len(c.obs))
		}
		got := h.Quantile(c.q)
		if got != c.want {
			t.Fatalf("%s: Quantile(%g) = %v, want %v", c.name, c.q, got, c.want)
		}
		if got%us != 0 {
			t.Fatalf("%s: Quantile(%g) = %v is not whole microseconds", c.name, c.q, got)
		}
	}
	// AtRank is one-based and clamps: of 99 fast and one slow, the 99th
	// is fast, the 100th (and anything past it) slow, and rank 0 is the
	// fastest.
	var h LatencyHist
	if h.AtRank(1) != 0 {
		t.Fatalf("cold AtRank(1) = %v, want 0", h.AtRank(1))
	}
	for _, d := range append(repeat(99, 100*us), 50*ms) {
		h.Observe(d)
	}
	for rank, want := range map[int64]time.Duration{-3: 128 * us, 0: 128 * us, 1: 128 * us, 99: 128 * us, 100: 65536 * us, 1000: 65536 * us} {
		if got := h.AtRank(rank); got != want {
			t.Fatalf("AtRank(%d) = %v, want %v", rank, got, want)
		}
	}
}

func repeat(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}
