package stats

import (
	"testing"
	"time"
)

// TestLatencyHistQuantile covers what /metrics relies on: AtRank never
// undershoots the observation it names, reports whole-microsecond bucket
// edges (printed as milliseconds), is 0 while cold, and clamps the rank
// the caller rounded (the gateway's own table pins that rounding against
// the old output).
func TestLatencyHistQuantile(t *testing.T) {
	us, ms := time.Microsecond, time.Millisecond
	for _, c := range []struct {
		name string
		obs  []time.Duration
		rank int64
		want time.Duration
	}{
		{"cold", nil, 1, 0},
		{"zero and negative share bucket 0", []time.Duration{0, -time.Second}, 2, 1 * us},
		{"bucket i is [2^(i-1), 2^i) µs", []time.Duration{1 * us}, 1, 2 * us},
		{"upper edge, never below the observation", []time.Duration{3 * ms}, 1, 4096 * us},
		{"exact power of two rounds up to the next edge", []time.Duration{1024 * us}, 1, 2048 * us},
		{"rank 2 of two is the slower", []time.Duration{10 * us, 900 * us}, 2, 1024 * us},
		{"rank 10 of ten is the one slow read", append(repeat(9, 100*us), 50*ms), 10, 65536 * us},
		{"rank 9 of ten is not", append(repeat(9, 100*us), 50*ms), 9, 128 * us},
		{"rank 99 of a hundred is fast", append(repeat(99, 100*us), 50*ms), 99, 128 * us},
		{"rank 100 of a hundred is the slowest", append(repeat(99, 100*us), 50*ms), 100, 65536 * us},
		{"rank past the count clamps to the slowest", []time.Duration{10 * us, 900 * us}, 3, 1024 * us},
		{"rank 0 clamps to the fastest", []time.Duration{10 * us, 900 * us}, 0, 16 * us},
		{"so does a negative rank", []time.Duration{10 * us, 900 * us}, -3, 16 * us},
		{"overflow lands in the top bucket", []time.Duration{1 << 62}, 1, (1 << 39) * us},
	} {
		var h LatencyHist
		for _, d := range c.obs {
			h.Observe(d)
		}
		if h.Count() != int64(len(c.obs)) {
			t.Fatalf("%s: Count() = %d, want %d", c.name, h.Count(), len(c.obs))
		}
		got := h.AtRank(c.rank)
		if got != c.want {
			t.Fatalf("%s: AtRank(%d) = %v, want %v", c.name, c.rank, got, c.want)
		}
		if got%us != 0 {
			t.Fatalf("%s: AtRank(%d) = %v is not whole microseconds", c.name, c.rank, got)
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
