package main

import (
	"io"
	"testing"
)

// countMetrics are the numbers of a run that are counts, not times: with
// one client and a fixed number of operations they must repeat exactly.
func countMetrics(m *measurement) map[string]float64 {
	out := map[string]float64{
		"stored_bytes_per_byte":              m.storedPerByte,
		"wire_bytes_per_byte":                m.wirePerByte,
		"store.read_blocks_per_get":          div(float64(m.cost.st.ReadBlocks), float64(m.gets)),
		"store.repair_blocks_read_per_block": div(float64(m.cost.st.RepairBlocksRead), float64(m.cost.st.RepairedBlocks)),
		"store.cache_hit_rate":               div(float64(m.cost.st.CacheHits), float64(m.cost.st.CacheHits+m.cost.st.CacheMisses)),
		"netblock.ops_per_req":               div(float64(m.cost.st.PutBlocks+m.cost.st.ReadBlocks), float64(m.gets+m.puts)),
		"attempted":                          float64(m.attempted),
	}
	if m.rs != nil {
		out["rs.repair_wire_bytes_per_byte"] = m.rs.wirePerByte
		out["rs.repair_blocks_read_per_block"] = m.rs.blocksReadPerBlk
	}
	return out
}

// TestCountsRepeat runs every workload twice with one client, a fixed
// seed and a fixed number of operations, and requires the count metrics
// to come out identical: they are properties of the inputs and the code,
// so a change that moves one changed what the store does, not how fast.
func TestCountsRepeat(t *testing.T) {
	for _, wl := range workloads {
		var runs [2]map[string]float64
		var last *measurement
		for i := range runs {
			e := testEnv(t, io.Discard)
			e.clients, e.setups, e.fixedOps = 1, 1, 200
			if wl.name == "repair-node" {
				e.fixedOps = 24 // kills per codec: every node once, and half again
			}
			m, err := wl.run(e)
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			if m.failed != 0 || len(m.violations) != 0 {
				t.Fatalf("%s: failed=%d (%v) violations=%v", wl.name, m.failed, m.err, m.violations)
			}
			runs[i], last = countMetrics(m), m
		}
		for name, a := range runs[0] {
			if b := runs[1][name]; a != b {
				t.Errorf("%s: %s = %v on the first run, %v on the second", wl.name, name, a, b)
			}
		}
		switch wl.name {
		case "ingest-large":
			// 16 stored blocks per 10 data blocks, plus a 4-byte CRC each.
			if r := last.storedPerByte; r < 1.60 || r > 1.65 {
				t.Errorf("stored_bytes_per_byte = %v, want [1.60, 1.65]", r)
			}
		case "serve-cold-large":
			if h := runs[0]["store.cache_hit_rate"]; h > 0.05 {
				t.Errorf("cold scan hit the cache at rate %v", h)
			}
		case "serve-hot-small":
			if h := runs[0]["store.cache_hit_rate"]; h < 0.5 {
				t.Errorf("hot set hit the cache at rate %v only", h)
			}
		case "repair-node":
			// The paper's claim on real sockets: 5+1 blocks moved per
			// repaired block against 10+1.
			ratio := last.wirePerByte / last.rs.wirePerByte
			if ratio < 0.45 || ratio > 0.65 {
				t.Errorf("LRC/RS repair wire bytes = %v, want [0.45, 0.65]", ratio)
			}
			if got := runs[0]["store.repair_blocks_read_per_block"]; got != 5 {
				t.Errorf("LRC repair read %v blocks per block, want 5", got)
			}
			if got := last.rs.blocksReadPerBlk; got != 10 {
				t.Errorf("RS repair read %v blocks per block, want 10", got)
			}
		}
	}
}
