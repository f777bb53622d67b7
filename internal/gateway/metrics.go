package gateway

import (
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/store"
)

// The gateway's observability is a handful of lock-free counters plus a
// log-scale latency histogram per verb (its count doubles as the verb's
// request count): enough to read request mix, throughput and tail
// latency off /metrics without a metrics dependency the container
// doesn't have.

// verbNames are the fixed verb buckets; OTHER absorbs methods the
// gateway rejects.
var verbNames = []string{"PUT", "GET", "HEAD", "DELETE", "POST", "LIST", "OTHER"}

// metricsState is the gateway-wide counter set.
type metricsState struct {
	verbs    map[string]*stats.LatencyHist // fixed at init; read-only map, atomic values
	bytesIn  atomic.Int64                  // object bytes received (PUT bodies, parts)
	bytesOut atomic.Int64                  // object bytes served (GET bodies)
	rejected atomic.Int64                  // admission-control 429s
}

func (m *metricsState) init() {
	m.verbs = make(map[string]*stats.LatencyHist, len(verbNames))
	for _, v := range verbNames {
		m.verbs[v] = &stats.LatencyHist{}
	}
}

func (m *metricsState) verb(name string) *stats.LatencyHist {
	if v, ok := m.verbs[name]; ok {
		return v
	}
	return m.verbs["OTHER"]
}

// quantileMs is the q-quantile latency /metrics reports, in
// milliseconds: the bucket edge at one-based rank round(q·n), so p99 of
// a hundred requests is the 99th, not the slowest.
func quantileMs(h *stats.LatencyHist, n int64, q float64) float64 {
	return float64(h.AtRank(int64(q*float64(n)+0.5)).Microseconds()) / 1e3
}

// VerbSnapshot is one verb's point-in-time stats in a /metrics reply.
type VerbSnapshot struct {
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// Snapshot is the /metrics JSON document: gateway counters plus the
// store's own metrics (so one curl shows HTTP traffic and the erasure
// datapath behind it side by side).
type Snapshot struct {
	Verbs             map[string]VerbSnapshot `json:"verbs"`
	BytesIn           int64                   `json:"bytes_in"`
	BytesOut          int64                   `json:"bytes_out"`
	AdmissionRejected int64                   `json:"admission_rejected"`
	// CacheHitRate is hits/(hits+misses) of the store's hot-block read
	// cache — 0 when the cache is disabled or untouched. The raw
	// counters are under Store.
	CacheHitRate float64       `json:"cache_hit_rate"`
	Store        store.Metrics `json:"store"`
}

// Metrics returns a point-in-time snapshot of the gateway's counters.
func (g *Gateway) Metrics() Snapshot {
	verbs := make(map[string]VerbSnapshot, len(verbNames))
	for _, name := range verbNames {
		v := g.m.verbs[name]
		n := v.Count()
		if n == 0 {
			continue
		}
		verbs[name] = VerbSnapshot{Requests: n, P50Ms: quantileMs(v, n, 0.50), P99Ms: quantileMs(v, n, 0.99)}
	}
	sm := g.st.Metrics()
	hitRate := 0.0
	if lookups := sm.CacheHits + sm.CacheMisses; lookups > 0 {
		hitRate = float64(sm.CacheHits) / float64(lookups)
	}
	return Snapshot{
		Verbs:             verbs,
		BytesIn:           g.m.bytesIn.Load(),
		BytesOut:          g.m.bytesOut.Load(),
		AdmissionRejected: g.m.rejected.Load(),
		CacheHitRate:      hitRate,
		Store:             sm,
	}
}
