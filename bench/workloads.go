package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/store"
)

// sizes are the dimensions of the four workloads. fullSizes is what the
// benchmark runs; the tests shrink them.
type sizes struct {
	largeBlock int   // block size of the large-object and repair workloads
	smallBlock int   // block size of serve-hot-small (the daemon default)
	cacheBytes int64 // hot-block cache of the three serving workloads

	ingestObject, ingestRing int // per client: ring of overwritten keys

	coldObjects, coldObject int // working set = 3 × cacheBytes

	hotReadObjects, hotReadObject   int // fits the cache
	hotWriteObjects, hotWriteObject int
	hotRangeMin, hotRangeMax        int // ranged-GET window

	repairObjects, repairObject int // whole stripes only
	repairGets                  int // degraded GETs per kill

	ladderBytes int // the object the layer ladder moves through every rung
}

var fullSizes = sizes{
	largeBlock: 1 << 20,
	smallBlock: 64 << 10,
	cacheBytes: 256 << 20,

	ingestObject: 32 << 20, ingestRing: 4,

	coldObjects: 48, coldObject: 16 << 20,

	hotReadObjects: 512, hotReadObject: 256 << 10,
	hotWriteObjects: 512, hotWriteObject: 64 << 10,
	hotRangeMin: 4 << 10, hotRangeMax: 64 << 10,

	repairObjects: 13, repairObject: 20 << 20,
	repairGets: 32,

	ladderBytes: 64 << 20,
}

// env is one run's settings.
type env struct {
	seed    int64
	clients int
	warmup  time.Duration
	window  time.Duration
	setups  int // how many times set-up runs; setup_s is their median
	// fixedOps, when > 0, replaces both timed phases with that many
	// requests per client (repair-node: that many kills per codec), so a
	// single-client run does the same work every time. Tests only.
	fixedOps int
	tmpRoot  string
	outDir   string // where traced runs write their span files
	traced   bool
	sz       sizes
	log      io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format, args...) }

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	run  func(e *env) (*measurement, error)
}

var workloads = []workloadDef{
	{"ingest-large", "32 MiB PUTs, 1 MiB blocks: encode, framing, write pool, bulk wire and body copy do the work; cache, repair and meta do almost none", runIngestLarge},
	{"serve-cold-large", "16 MiB GETs scanning 3x the cache: the same store, wire and gateway layers in the read direction with no codec work and no cache hits", runServeColdLarge},
	{"serve-hot-small", "Zipf 80/10/10 ranged GET, GET, PUT on 64 KiB blocks, cache-resident: per-request cost in gateway, meta and cache; gf and bulk wire do almost none", runServeHotSmall},
	{"repair-node", "kill a node, read degraded, repair it, LRC then RS(10,4): the paper's observable, repair time and network bytes per repaired byte", runRepairNode},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// measurement is everything one run of one workload measured. The
// end-to-end metrics are derived from it directly; the per-layer metrics
// from the counters, latencies and span summary it carries.
type measurement struct {
	setupS        float64 // median over the set-ups
	storedPerByte float64 // node-side framed bytes ÷ user bytes after the first fill

	// The workload's operation over the measured window.
	goodputMBps float64
	opsPerS     float64
	opP50Ms     float64
	opP95Ms     float64
	latN        int // latency samples behind the two percentiles
	wirePerByte float64

	attempted, failed int
	err               error    // first failed operation
	violations        []string // invariants of the run that did not hold

	// For the per-layer metrics.
	window    time.Duration
	userBytes int64 // payload the operations moved (or repair rebuilt)
	ops       int   // operations (requests, or blocks repaired)
	gets      int   // GET requests in the window
	puts      int
	getBytes  int64 // payload the GETs returned
	getLatMs  []float64
	putLatMs  []float64
	cost      windowCost
	trace     *traceSummary
	rs        *rsBaseline // repair-node only
}

// rsBaseline is the RS(10,4) half of repair-node.
type rsBaseline struct {
	repairMBps        float64
	wirePerByte       float64
	blocksReadPerBlk  float64
	reconstructBusyNs int64
	rootNs            int64
}

func (m *measurement) note(ls *loadStats) {
	m.attempted += ls.totalOps() + ls.failed()
	m.failed += ls.failed()
	if m.err == nil {
		m.err = ls.firstErr()
	}
}

func (m *measurement) violate(format string, args ...any) {
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
}

// session is a booted stack with its load generator.
type session struct {
	stk *stack
	lg  *loadGen
	rec *recorder
}

func (s *session) close() error {
	s.lg.close()
	return s.stk.close()
}

// measure runs fn as the measured window: counters are snapshotted around
// it and, on a traced session, only its spans are kept.
func (s *session) measure(fn func()) windowCost {
	if s.rec != nil {
		s.rec.start()
		defer s.rec.stop()
	}
	return measureWindow(s.stk, s.settle, fn)
}

// settle waits until the gateway has finished every request it answered.
// A client reads the last byte of a body before the handler merges that
// request's block and byte counts into the store's counters, so a snapshot
// taken right after the last response could miss one request's worth.
func (s *session) settle() {
	deadline := time.Now().Add(time.Second)
	for s.stk.requestsFinished() < s.lg.answered.Load() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

func (e *env) open(cfg stackConfig) (*session, error) {
	if e.traced {
		cfg.rec = newRecorder()
	}
	stk, err := bootStack(cfg, e.tmpRoot)
	if err != nil {
		return nil, err
	}
	return &session{stk: stk, lg: newLoadGen(stk.base, e.clients, e.seed, cfg.rec), rec: cfg.rec}, nil
}

// repeatSetup runs setup e.setups times, closing every result but the
// last, and returns the last with the median set-up time. Set-up is
// everything before the first measured request: fleet, store, gateway,
// HTTP server and preload.
func repeatSetup[T interface{ close() error }](e *env, setup func() (T, error)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < e.setups; i++ {
		if i > 0 {
			if err := last.close(); err != nil {
				return last, 0, err
			}
			// The torn-down fleet held the whole working set. Let go of it
			// and collect it before the next one is built, so that two
			// never coexist, but keep the pages: a later set-up then
			// reuses warm memory, as the median of the set-ups should.
			var none T
			last = none
			runtime.GC()
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = s
	}
	e.logf("set-ups, s: %.3f\n", times)
	return last, median(times), nil
}

// keySet is a group of same-sized objects a set-up preloads.
type keySet struct {
	keys []string
	size int
}

// preload PUTs generation 1 of every key of every set.
func (e *env) preload(s *session, c *content, sets ...keySet) error {
	var reqs []request
	for _, ks := range sets {
		for _, k := range ks.keys {
			reqs = append(reqs, request{method: http.MethodPut, key: k, body: c.object(k, 1, ks.size)})
		}
	}
	ls := s.lg.once(reqs, e.clients)
	if ls.failed() > 0 {
		return fmt.Errorf("preload: %d of %d PUTs failed: %w", ls.failed(), len(reqs), ls.firstErr())
	}
	return nil
}

// setupServing is the set-up of the three request-serving workloads: boot
// a stack and preload it, e.setups times over. It returns the last session
// and a measurement with setup_s and stored_bytes_per_byte filled in.
func (e *env) setupServing(cfg stackConfig, c *content, sets ...keySet) (*session, *measurement, error) {
	s, setupS, err := repeatSetup(e, func() (*session, error) {
		s, err := e.open(cfg)
		if err != nil {
			return nil, err
		}
		if err := e.preload(s, c, sets...); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, nil, err
	}
	m := &measurement{setupS: setupS}
	if m.storedPerByte, err = storedRatio(s.stk); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, m, nil
}

// Warm-up goes on past e.warmup, in steps of half of it, while a step
// still grows the process's resident memory by more than warmupSettled,
// at most warmupExtra times. A workload's first requests fill the cache
// and grow the heap to its working size; on serve-cold-large that is
// 1.4 GB of fresh pages, during which the stack serves at a tenth of its
// speed.
const (
	warmupSettled = 64 << 20
	warmupExtra   = 10
)

// serve warms the session up, then measures the window into m.
func (e *env) serve(s *session, m *measurement, next func(client int, rng *rand.Rand) request) {
	s.lg.run(e.warmup, e.fixedOps, next)
	for i := 0; i < warmupExtra && e.fixedOps == 0; i++ {
		before, _ := rssBytes()
		s.lg.run(e.warmup/2, 0, next)
		if after, ok := rssBytes(); !ok || after-before < warmupSettled {
			break
		}
	}
	var ls *loadStats
	cost := s.measure(func() { ls = s.lg.run(e.window, e.fixedOps, next) })
	m.finishLoad(e, ls, cost)
}

func keysOf(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return keys
}

// storedRatio is the node-side storage overhead of what the stack holds.
func storedRatio(stk *stack) (float64, error) {
	stored, user, err := stk.storedBytes()
	if err != nil {
		return 0, err
	}
	return float64(stored) / float64(user), nil
}

// rateSlices is how many equal slices a measured window is cut into; the
// throughput and latency metrics are the median slice's.
const rateSlices = 10

// finishLoad fills the measurement from a request-serving window. The
// workload's operation is every request the window sent: PUTs on
// ingest-large, GETs on serve-cold-large, the mix on serve-hot-small.
func (m *measurement) finishLoad(e *env, ls *loadStats, cost windowCost) {
	m.note(ls)
	m.window = e.window
	if e.fixedOps > 0 {
		m.window = ls.maxElapsed()
	}
	m.cost = cost
	m.gets, m.puts, m.getBytes = ls.ops(classGet), ls.ops(classPut), ls.bytes(classGet)
	m.getLatMs, m.putLatMs = ls.lat(classGet), ls.lat(classPut)
	m.userBytes, m.ops = ls.totalBytes(), ls.totalOps()
	m.latN = m.ops
	bytesPerS, opsPerS := ls.sliceRates(m.window, rateSlices)
	m.goodputMBps, m.opsPerS = median(bytesPerS)/1e6, median(opsPerS)
	e.logf("slices, MB/s:")
	for _, b := range bytesPerS {
		e.logf(" %.0f", b/1e6)
	}
	e.logf("\n")
	m.opP50Ms = ls.sliceLatency(m.window, rateSlices, 0.50)
	m.opP95Ms = ls.sliceLatency(m.window, rateSlices, 0.95)
	m.wirePerByte = div(float64(cost.st.WireSentBytes+cost.st.WireRecvBytes), float64(m.userBytes))
}

// finishTrace summarizes and writes out a traced session's spans.
func (e *env) finishTrace(s *session, file string) (*traceSummary, error) {
	if s.rec == nil {
		return nil, nil
	}
	sum := s.rec.summarize()
	if err := s.rec.writeFile(filepath.Join(e.outDir, file)); err != nil {
		return nil, err
	}
	return &sum, nil
}

// --- ingest-large ---

func runIngestLarge(e *env) (_ *measurement, err error) {
	c := newContent(e.seed, e.sz.ingestObject)
	ring := func(client int) []string { return keysOf(fmt.Sprintf("in-c%d-", client), e.sz.ingestRing) }
	var all []string
	for cl := 0; cl < e.clients; cl++ {
		all = append(all, ring(cl)...)
	}
	s, m, err := e.setupServing(stackConfig{blockSize: e.sz.largeBlock, cacheBytes: e.sz.cacheBytes}, c, keySet{all, e.sz.ingestObject})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()

	// Each client overwrites its own ring round-robin, so steady state
	// is overwrite and resident bytes stay bounded.
	gens := make([][]uint32, e.clients) // [client][ring slot] = last generation sent
	turn := make([]int, e.clients)
	rings := make([][]string, e.clients)
	for cl := range gens {
		rings[cl] = ring(cl)
		gens[cl] = make([]uint32, e.sz.ingestRing)
		for i := range gens[cl] {
			gens[cl][i] = 1
		}
	}
	next := func(cl int, _ *rand.Rand) request {
		slot := turn[cl] % e.sz.ingestRing
		turn[cl]++
		gens[cl][slot]++
		key := rings[cl][slot]
		return request{method: http.MethodPut, key: key, body: c.object(key, gens[cl][slot], e.sz.ingestObject)}
	}
	e.serve(s, m, next)

	// A PUT's output is what a later GET returns: read every key back at
	// the last generation sent.
	var back []request
	for cl := range rings {
		for slot, key := range rings[cl] {
			back = append(back, request{method: http.MethodGet, key: key, want: c.object(key, gens[cl][slot], e.sz.ingestObject)})
		}
	}
	m.note(s.lg.once(back, e.clients))
	m.trace, err = e.finishTrace(s, "trace-ingest-large.json")
	return m, err
}

// --- serve-cold-large ---

func runServeColdLarge(e *env) (_ *measurement, err error) {
	c := newContent(e.seed, e.sz.coldObject)
	keys := keysOf("cold-", e.sz.coldObjects)
	s, m, err := e.setupServing(stackConfig{blockSize: e.sz.largeBlock, cacheBytes: e.sz.cacheBytes}, c, keySet{keys, e.sz.coldObject})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()

	// Each client scans its own share of the keys cyclically: with a
	// working set three times the cache, the LRU's worst case. The seed
	// picks where each scan starts.
	turn := make([]int, e.clients)
	for cl := range turn {
		turn[cl] = rand.New(rand.NewSource(e.seed + int64(cl))).Intn(len(keys))
	}
	next := func(cl int, _ *rand.Rand) request {
		i := (turn[cl]*e.clients + cl) % len(keys)
		turn[cl]++
		return request{method: http.MethodGet, key: keys[i], want: c.object(keys[i], 1, e.sz.coldObject)}
	}
	e.serve(s, m, next)
	m.trace, err = e.finishTrace(s, "trace-serve-cold-large.json")
	return m, err
}

// --- serve-hot-small ---

func runServeHotSmall(e *env) (_ *measurement, err error) {
	sz := e.sz
	c := newContent(e.seed, max(sz.hotReadObject, sz.hotWriteObject))
	readKeys := keysOf("hot-r-", sz.hotReadObjects)
	writeKeys := keysOf("hot-w-", sz.hotWriteObjects)
	s, m, err := e.setupServing(stackConfig{blockSize: sz.smallBlock, cacheBytes: sz.cacheBytes}, c,
		keySet{readKeys, sz.hotReadObject}, keySet{writeKeys, sz.hotWriteObject})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()

	// Zipf(1.1) popularity over the read keys, shared by all clients, and
	// over each client's own share of the write keys — one writer per
	// key, so the last generation sent is the one a read-back must see.
	gens := make([]uint32, len(writeKeys))
	for i := range gens {
		gens[i] = 1
	}
	readZipf := make([]*rand.Zipf, e.clients)
	writeZipf := make([]*rand.Zipf, e.clients)
	own := (len(writeKeys) + e.clients - 1) / e.clients
	for cl := range readZipf {
		readZipf[cl] = rand.NewZipf(s.lg.rngs[cl], 1.1, 1, uint64(len(readKeys)-1))
		writeZipf[cl] = rand.NewZipf(s.lg.rngs[cl], 1.1, 1, uint64(own-1))
	}
	next := func(cl int, rng *rand.Rand) request {
		switch p := rng.Intn(10); {
		case p == 0: // 10% overwrite PUT
			i := int(writeZipf[cl].Uint64())*e.clients + cl
			if i >= len(writeKeys) {
				i = cl
			}
			gens[i]++
			return request{method: http.MethodPut, key: writeKeys[i], body: c.object(writeKeys[i], gens[i], sz.hotWriteObject)}
		case p == 1: // 10% whole-object GET
			k := readKeys[readZipf[cl].Uint64()]
			return request{method: http.MethodGet, key: k, want: c.object(k, 1, sz.hotReadObject)}
		default: // 80% ranged GET
			k := readKeys[readZipf[cl].Uint64()]
			n := sz.hotRangeMin + rng.Intn(sz.hotRangeMax-sz.hotRangeMin+1)
			off := rng.Intn(sz.hotReadObject - n + 1)
			return request{method: http.MethodGet, key: k, want: c.object(k, 1, sz.hotReadObject)[off : off+n], off: int64(off), ranged: true}
		}
	}
	e.serve(s, m, next)

	back := make([]request, len(writeKeys))
	for i, k := range writeKeys {
		back[i] = request{method: http.MethodGet, key: k, want: c.object(k, gens[i], sz.hotWriteObject)}
	}
	m.note(s.lg.once(back, e.clients))
	m.trace, err = e.finishTrace(s, "trace-serve-hot-small.json")
	return m, err
}

// --- repair-node ---

// repairStats is what the repair phases of one codec's cycles added up to.
type repairStats struct {
	cycles    int
	mbps      []float64     // per cycle: payload rebuilt ÷ (ScrubPresence + Drain) time
	blocksPS  []float64     // per cycle: blocks rebuilt per second
	p50, p95  []float64     // per cycle: degraded GET latency percentiles, ms
	st        store.Metrics // Σ delta over the repair phases only
	degraded  *loadStats    // every degraded GET
	elapsed   time.Duration
	unhealthy int   // cycles that left damage behind
	err       error // first manifest lookup that failed
}

// repairPair is the two stacks of repair-node.
type repairPair struct{ lrc, rs *session }

func (p *repairPair) close() error {
	var errs []error
	if p.lrc != nil {
		errs = append(errs, p.lrc.close())
	}
	if p.rs != nil {
		errs = append(errs, p.rs.close())
	}
	return errors.Join(errs...)
}

func runRepairNode(e *env) (m *measurement, err error) {
	sz := e.sz
	c := newContent(e.seed, sz.repairObject)
	keys := keysOf("rep-", sz.repairObjects)
	pair, setupS, err := repeatSetup(e, func() (*repairPair, error) {
		p := &repairPair{}
		for _, rs := range []bool{false, true} {
			// No cache: a degraded read must reconstruct every time.
			s, err := e.open(stackConfig{rs: rs, blockSize: sz.largeBlock})
			if err == nil {
				if rs {
					p.rs = s
				} else {
					p.lrc = s
				}
				err = e.preload(s, c, keySet{keys, sz.repairObject})
			}
			if err != nil {
				p.close()
				return nil, err
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, pair.close()) }()
	m = &measurement{setupS: setupS}
	if m.storedPerByte, err = storedRatio(pair.lrc.stk); err != nil {
		return nil, err
	}

	// Victims are a seeded permutation walked round-robin, the same for
	// both codecs. The LRC stack, the product, gets three quarters of
	// the window; the RS baseline it is compared against, the rest.
	victims := rand.New(rand.NewSource(e.seed)).Perm(fleetNodes)
	cycles := func(s *session, d time.Duration) (repairStats, windowCost) {
		e.repairCycles(s, c, keys, victims, e.warmup/2) // unmeasured
		var rs repairStats
		cost := s.measure(func() { rs = e.repairCycles(s, c, keys, victims, d) })
		return rs, cost
	}
	lrc, lrcCost := cycles(pair.lrc, e.window*3/4)
	rs, _ := cycles(pair.rs, e.window/4)

	m.note(lrc.degraded)
	m.note(rs.degraded)
	m.window, m.cost = lrc.elapsed, lrcCost
	m.userBytes, m.ops = lrc.st.RepairedBytes, int(lrc.st.RepairedBlocks)
	m.goodputMBps, m.opsPerS = median(lrc.mbps), median(lrc.blocksPS) // the median kill
	m.opP50Ms, m.opP95Ms = median(lrc.p50), median(lrc.p95)
	m.gets, m.getBytes, m.getLatMs = lrc.degraded.ops(classGet), lrc.degraded.bytes(classGet), lrc.degraded.lat(classGet)
	m.latN = m.gets
	m.wirePerByte = div(float64(lrc.st.WireSentBytes+lrc.st.WireRecvBytes), float64(lrc.st.RepairedBytes))
	m.rs = &rsBaseline{
		repairMBps:       median(rs.mbps),
		wirePerByte:      div(float64(rs.st.WireSentBytes+rs.st.WireRecvBytes), float64(rs.st.RepairedBytes)),
		blocksReadPerBlk: div(float64(rs.st.RepairBlocksRead), float64(rs.st.RepairedBlocks)),
	}
	for name, st := range map[string]repairStats{"lrc": lrc, "rs": rs} {
		if st.st.RepairedBlocks == 0 {
			m.violate("%s: node kills repaired no blocks", name)
		}
		if st.err != nil {
			m.violate("%s: %v", name, st.err)
		}
		if st.unhealthy > 0 {
			m.violate("%s: %d of %d repairs left blocks on a dead node", name, st.unhealthy, st.cycles)
		}
	}
	// The paper's claim, on real sockets: an LRC repair moves about half
	// the bytes of an RS(10,4) repair (5+1 blocks against 10+1).
	if ratio := div(m.wirePerByte, m.rs.wirePerByte); ratio < 0.45 || ratio > 0.65 {
		m.violate("LRC/RS repair wire bytes = %.3f, outside [0.45, 0.65]", ratio)
	}

	// Everything both stores hold must still read back whole.
	back := make([]request, len(keys))
	for i, k := range keys {
		back[i] = request{method: http.MethodGet, key: k, want: c.object(k, 1, sz.repairObject)}
	}
	m.note(pair.lrc.lg.once(back, e.clients))
	m.note(pair.rs.lg.once(back, e.clients))

	if m.trace, err = e.finishTrace(pair.lrc, "trace-repair-node.json"); err != nil {
		return m, err
	}
	rsTrace, err := e.finishTrace(pair.rs, "trace-repair-node-rs.json")
	if rsTrace != nil {
		m.rs.reconstructBusyNs, m.rs.rootNs = rsTrace.busyNs[spanReconstruct], rsTrace.rootNs
	}
	return m, err
}

// blockRef is one data block of one object.
type blockRef struct {
	key         string
	stripe, pos int
}

// repairCycles runs kill → degraded GETs → timed repair → revive until d
// has passed (at least once).
func (e *env) repairCycles(s *session, c *content, keys []string, victims []int, d time.Duration) repairStats {
	sz := e.sz
	st := s.stk.st
	k := st.Codec().K()
	stripeBytes := k * sz.largeBlock
	stripes := sz.repairObject / stripeBytes
	rng := s.lg.rngs[0]
	out := repairStats{degraded: &loadStats{}}
	start := time.Now()
	more := func(cycle int) bool {
		switch {
		case cycle == 0:
			return true
		case e.fixedOps > 0:
			return cycle < e.fixedOps
		}
		return time.Since(start) < d
	}
	for cycle := 0; more(cycle); cycle++ {
		victim := victims[cycle%len(victims)]
		st.KillNode(victim)

		// Degraded reads: 1 MiB windows that sit on the victim.
		var onVictim []blockRef
		for _, key := range keys {
			for sp := 0; sp < stripes; sp++ {
				for pos := 0; pos < k; pos++ {
					node, _, err := st.BlockLocation(tenant+"/"+key, sp, pos)
					if err != nil && out.err == nil {
						out.err = err
					}
					if err == nil && node == victim {
						onVictim = append(onVictim, blockRef{key, sp, pos})
					}
				}
			}
		}
		rng.Shuffle(len(onVictim), func(i, j int) { onVictim[i], onVictim[j] = onVictim[j], onVictim[i] })
		// A node holds about half as many data blocks as a kill reads
		// windows: the shuffled list is walked round and round. With no
		// cache, every read reconstructs.
		reqs := make([]request, 0, sz.repairGets)
		for i := 0; i < sz.repairGets && len(onVictim) > 0; i++ {
			b := onVictim[i%len(onVictim)]
			off := b.stripe*stripeBytes + b.pos*sz.largeBlock
			reqs = append(reqs, request{method: http.MethodGet, key: b.key, ranged: true, off: int64(off),
				want: c.object(b.key, 1, sz.repairObject)[off : off+sz.largeBlock]})
		}
		ls := s.lg.once(reqs, e.clients)
		out.degraded.clients = append(out.degraded.clients, ls.clients...)
		if lat := sortedCopy(ls.lat(classGet)); len(lat) > 0 {
			out.p50 = append(out.p50, quantile(lat, 0.50))
			out.p95 = append(out.p95, quantile(lat, 0.95))
		}

		// The repair itself: find what the dead node held, rebuild it
		// elsewhere.
		var endPhase func()
		if s.rec != nil {
			endPhase = s.rec.beginPhase()
		}
		m0 := st.Metrics()
		t0 := time.Now()
		s.stk.sc.ScrubPresence()
		s.stk.rm.Drain()
		took := time.Since(t0)
		delta := subMetrics(st.Metrics(), m0)
		out.st = addMetrics(out.st, delta)
		out.mbps = append(out.mbps, float64(delta.RepairedBytes)/1e6/took.Seconds())
		out.blocksPS = append(out.blocksPS, float64(delta.RepairedBlocks)/took.Seconds())
		if endPhase != nil {
			endPhase()
		}
		if rep := s.stk.sc.ScrubPresence(); rep.Missing > 0 {
			out.unhealthy++
			s.stk.rm.Drain()
		}
		st.ReviveNode(victim)
		out.cycles++
	}
	out.elapsed = time.Since(start)
	return out
}
