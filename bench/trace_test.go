package main

import (
	"io"
	"net/http"
	"testing"

	"repro/internal/netblock"
	"repro/internal/store"
)

var _ store.Codec = (*tracedCodec)(nil)

// TestTracedBackendForwardsOptionalInterfaces: the store finds a
// backend's fast paths and counters by type assertion, so the wrapper
// must answer every such assertion exactly as the client it wraps does.
func TestTracedBackendForwardsOptionalInterfaces(t *testing.T) {
	var inner store.Backend = &netblock.Client{}
	var wrapped store.Backend = &tracedBackend{}
	checks := map[string]func(store.Backend) bool{
		"OwnedWriter":   func(b store.Backend) bool { _, ok := b.(store.OwnedWriter); return ok },
		"WireStats":     func(b store.Backend) bool { _, ok := b.(store.WireStats); return ok },
		"NodeAdder":     func(b store.Backend) bool { _, ok := b.(store.NodeAdder); return ok },
		"BlockStreamer": func(b store.Backend) bool { _, ok := b.(store.BlockStreamer); return ok },
		"HealthChecker": func(b store.Backend) bool { _, ok := b.(store.HealthChecker); return ok },
		"HealthStats":   func(b store.Backend) bool { _, ok := b.(store.HealthStats); return ok },
		"Nodes":         func(b store.Backend) bool { _, ok := b.(interface{ Nodes() int }); return ok },
	}
	for name, has := range checks {
		if has(inner) != has(wrapped) {
			t.Errorf("%s: client implements it = %v, tracedBackend = %v", name, has(inner), has(wrapped))
		}
	}
}

// script is a fixed single-client sequence touching every datapath the
// workloads use: whole and short stripes, overwrite, full and ranged
// reads, a degraded read and a repair.
func script(t *testing.T, s *session, c *content) store.Metrics {
	t.Helper()
	const size = 400 << 10 // two whole 160 KiB stripes and a short one
	keys := keysOf("fid-", 3)
	var reqs []request
	for gen := uint32(1); gen <= 2; gen++ {
		for _, k := range keys {
			reqs = append(reqs, request{method: http.MethodPut, key: k, body: c.object(k, gen, size)})
		}
	}
	for _, k := range keys[1:] { // keys[0] stays out of the cache for the degraded read
		obj := c.object(k, 2, size)
		reqs = append(reqs,
			request{method: http.MethodGet, key: k, want: obj},
			request{method: http.MethodGet, key: k, want: obj[1000:70000], off: 1000, ranged: true})
	}
	check := func(ls *loadStats) {
		t.Helper()
		if ls.failed() > 0 {
			t.Fatalf("script: %d requests failed: %v", ls.failed(), ls.firstErr())
		}
	}
	check(s.lg.once(reqs, 1))
	victim, _, err := s.stk.st.BlockLocation(tenant+"/"+keys[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.stk.st.KillNode(victim)
	check(s.lg.once([]request{{method: http.MethodGet, key: keys[0], want: c.object(keys[0], 2, size)}}, 1))
	s.stk.sc.ScrubPresence()
	s.stk.rm.Drain()
	s.stk.st.ReviveNode(victim)
	check(s.lg.once([]request{{method: http.MethodGet, key: keys[0], want: c.object(keys[0], 2, size)}}, 1))
	return s.stk.st.Metrics()
}

// TestTracingKeepsTheCodePath runs the same script on an untraced and a
// traced stack: the wrappers may add time, never work.
func TestTracingKeepsTheCodePath(t *testing.T) {
	c := newContent(1, 1<<20)
	var got [2]store.Metrics
	for i, traced := range []bool{false, true} {
		e := testEnv(t, io.Discard)
		e.clients, e.traced = 1, traced
		s, err := e.open(stackConfig{blockSize: 16 << 10, cacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			s.rec.start()
		}
		got[i] = script(t, s, c)
		if traced {
			sum := s.rec.summarize()
			for _, name := range []string{spanWrite, spanRead, spanEncode, spanReconstruct} {
				if sum.busyNs[name] <= 0 {
					t.Errorf("traced script recorded no %s time", name)
				}
			}
			if sum.coreSelfNs <= 0 || sum.coreSelfNs >= sum.coreNs {
				t.Errorf("core self time %d of %d", sum.coreSelfNs, sum.coreNs)
			}
			if len(sum.httpOverheadUs) == 0 {
				t.Error("no handler span found its client span")
			}
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
	}
	plain, traced := got[0], got[1]
	for _, f := range []struct {
		name string
		a, b int64
	}{
		{"PutBlocks", plain.PutBlocks, traced.PutBlocks},
		{"PutBytes", plain.PutBytes, traced.PutBytes},
		{"ReadBlocks", plain.ReadBlocks, traced.ReadBlocks},
		{"DegradedReads", plain.DegradedReads, traced.DegradedReads},
		{"RepairBlocksRead", plain.RepairBlocksRead, traced.RepairBlocksRead},
		{"RepairedBlocks", plain.RepairedBlocks, traced.RepairedBlocks},
		{"CacheHits", plain.CacheHits, traced.CacheHits},
		{"WireSentBytes", plain.WireSentBytes, traced.WireSentBytes},
		{"WireRecvBytes", plain.WireRecvBytes, traced.WireRecvBytes},
	} {
		if f.a != f.b {
			t.Errorf("%s: untraced %d, traced %d", f.name, f.a, f.b)
		}
		if f.a == 0 {
			t.Errorf("%s: the script never exercised it", f.name)
		}
	}
}

// TestSpanMath checks self time and busy time on a hand-built trace: one
// request whose handler runs an encode, then two overlapping writes.
func TestSpanMath(t *testing.T) {
	r := newRecorder()
	r.add(9, 0, 9, spanClient, 0, 50) // before the window: dropped
	r.start()
	r.add(1, 0, 1, spanClient, 0, 1000)
	r.add(2, 1, 1, spanHandler, 100, 900)
	r.add(0, 2, 1, spanEncode, 200, 300)
	r.add(0, 2, 1, spanWrite, 400, 600)
	r.add(0, 2, 1, spanWrite, 500, 700)
	r.add(0, 0, 0, spanEncode, 5000, 5050) // no parent known
	s := r.summarize()
	if s.rootNs != 1000 || s.coreNs != 800 {
		t.Errorf("root %d core %d, want 1000 800", s.rootNs, s.coreNs)
	}
	if s.busyNs[spanWrite] != 300 || s.busyNs[spanEncode] != 150 {
		t.Errorf("write busy %d encode busy %d, want 300 150", s.busyNs[spanWrite], s.busyNs[spanEncode])
	}
	if s.coreSelfNs != 400 { // 800 − (100 encode + 300 writes)
		t.Errorf("core self %d, want 400", s.coreSelfNs)
	}
	if len(s.httpOverheadUs) != 1 || s.httpOverheadUs[0] != 0.2 {
		t.Errorf("http overhead %v, want [0.2]", s.httpOverheadUs)
	}
	if got := keyObject("bench_in-c0-0001.g000012.s00003.b07"); got != "bench_in-c0-0001" {
		t.Errorf("keyObject = %q", got)
	}
	if got := keyName("bench/in-c0-0001"); got != "bench_in-c0-0001" {
		t.Errorf("keyName = %q", got)
	}
}
