package main

// perLayerValues derives every per-layer metric from three sources, all
// outside the program:
//
//	(a) counts: deltas of store.Metrics and gateway.Metrics over the
//	    untraced window (plain);
//	(b) spans: the traced window's summary (traced.trace);
//	(c) rungs: the layer ladder.
//
// A count or span share whose event did not happen on this workload is 0.
func perLayerValues(plain, traced *measurement, l *ladder) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for name, x := range l.values { // (c)
		v[name] = x
	}

	// (a) counts, untraced.
	st := plain.cost.st
	user := float64(plain.userBytes)
	requests := float64(plain.gets + plain.puts)
	v["lrc.light_repairs"] = float64(st.LightRepairs + st.RepairsLight)
	v["lrc.heavy_repairs"] = float64(st.HeavyRepairs + st.RepairsHeavy)
	v["store.cache_hit_rate"] = div(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	v["store.cache_evictions"] = float64(st.CacheEvictions)
	v["store.cache_invalidations"] = float64(st.CacheInvalidations)
	v["store.read_bytes_per_byte"] = div(float64(st.ReadBytes), float64(plain.getBytes))
	v["store.read_blocks_per_get"] = div(float64(st.ReadBlocks), float64(plain.gets))
	v["store.degraded_reads"] = float64(st.DegradedReads)
	v["store.hedge_fires"] = float64(st.HedgeFires)
	v["store.repair_blocks_read_per_block"] = div(float64(st.RepairBlocksRead), float64(st.RepairedBlocks))
	v["meta.wal_bytes_per_put"] = div(float64(st.MetaWALBytes), float64(plain.puts))
	v["meta.records_per_fsync"] = div(float64(plain.puts), float64(st.MetaCommitBatches))
	v["netblock.wire_bytes_per_byte"] = div(float64(st.WireSentBytes+st.WireRecvBytes), user)
	v["netblock.ops_per_req"] = div(float64(st.PutBlocks+st.ReadBlocks), requests)
	v["netblock.breaker_opens"] = float64(st.BreakerOpens)
	v["gateway.rejected"] = float64(plain.cost.rejected)
	getLat, putLat := sortedCopy(plain.getLatMs), sortedCopy(plain.putLatMs)
	v["gateway.get_p50_ms"] = zeroIfEmpty(getLat, 0.50)
	v["gateway.get_p99_ms"] = zeroIfEmpty(getLat, 0.99)
	v["gateway.put_p50_ms"] = zeroIfEmpty(putLat, 0.50)
	v["gateway.put_p99_ms"] = zeroIfEmpty(putLat, 0.99)

	// proc, untraced.
	p := plain.cost.proc
	v["proc.cpu_s_per_gb"] = div(p.cpu.Seconds(), user/1e9)
	v["proc.cpu_us_per_op"] = div(float64(p.cpu.Microseconds()), float64(plain.ops))
	v["proc.alloc_mb_per_gb"] = div(float64(p.allocBytes)/1e6, user/1e9)
	v["proc.gc_pause_ms"] = float64(p.gcPause) / 1e6
	v["proc.peak_rss_mb"] = float64(p.peakRSS) / 1e6
	v["proc.rss_growth_mb"] = float64(p.rssGrowth) / 1e6
	v["proc.trace_overhead_frac"] = 1 - div(traced.goodputMBps, plain.goodputMBps)

	// (b) spans, traced.
	var ts traceSummary
	if traced.trace != nil {
		ts = *traced.trace
	}
	root := float64(ts.rootNs)
	v["lrc.encode_busy_frac"] = div(float64(ts.busyNs[spanEncode]), root)
	v["lrc.reconstruct_busy_frac"] = div(float64(ts.busyNs[spanReconstruct]), root)
	v["store.core_self_frac"] = div(float64(ts.coreSelfNs), float64(ts.coreNs))
	v["store.repair_fetch_wait_frac"] = div(float64(ts.fetchWaitNs), float64(ts.repairNs))
	v["netblock.write_busy_frac"] = div(float64(ts.busyNs[spanWrite]), root)
	v["netblock.read_busy_frac"] = div(float64(ts.busyNs[spanRead]), root)
	v["netblock.op_p50_us"] = zeroIfEmpty(sortedCopy(ts.backendOpUs), 0.50)
	v["gateway.http_overhead_us"] = zeroIfEmpty(sortedCopy(ts.httpOverheadUs), 0.50)

	// The RS(10,4) baseline exists on repair-node only; elsewhere it is
	// all zeros.
	rs, rsTraced := plain.rs, traced.rs
	if rs == nil {
		rs, rsTraced = &rsBaseline{}, &rsBaseline{}
	}
	v["rs.repair_mbps"] = rs.repairMBps
	v["rs.repair_wire_bytes_per_byte"] = rs.wirePerByte
	v["rs.repair_blocks_read_per_block"] = rs.blocksReadPerBlk
	v["lrc.repair_wire_vs_rs"] = div(plain.wirePerByte, rs.wirePerByte)
	v["rs.reconstruct_busy_frac"] = div(float64(rsTraced.reconstructBusyNs), float64(rsTraced.rootNs))
	return v
}

// zeroIfEmpty is quantile with 0 for "no such request on this workload".
func zeroIfEmpty(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, q)
}
