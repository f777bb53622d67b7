package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pattern"
)

// tenant is the gateway tenant every benchmark object lives under.
const tenant = "bench"

// content derives every object's bytes from (seed, key, generation): an
// object is a window of the internal/pattern stream starting at an
// offset hashed from that triple. The stream is materialized once, so a
// PUT body is a slice of it and verifying a GET is a memcmp — the
// generator must not compete with the server for the machine's two
// cores more than a real client would.
type content struct {
	seed   int64
	master []byte
	span   int // number of distinct window offsets
}

func newContent(seed int64, maxObject int) *content {
	const span = 8 << 20
	c := &content{seed: seed, span: span, master: make([]byte, maxObject+span)}
	if _, err := io.ReadFull(pattern.NewReader(int64(len(c.master))), c.master); err != nil {
		panic(err) // pattern.Reader yields exactly the bytes asked for
	}
	return c
}

func (c *content) object(key string, gen uint32, size int) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", c.seed, key, gen)
	off := int(h.Sum64() % uint64(c.span))
	return c.master[off : off+size]
}

// request is one generated HTTP operation and, for reads, the bytes a
// correct store must answer with.
type request struct {
	method string // http.MethodPut, MethodGet or MethodHead
	key    string
	body   []byte // PUT: the object
	// GET: want is the expected response body. For a ranged GET it is
	// the window [off, off+len(want)) of the object; ranged selects the
	// Range header (a whole-object GET of the same bytes sends none).
	want   []byte
	off    int64
	ranged bool
}

// Operation classes latencies and counts are kept by.
const (
	classGet = iota
	classPut
	numClasses
)

// opRec is one successful request: its class, when it ran (offsets from
// the start of the run it belongs to) and the payload it moved.
type opRec struct {
	class      int
	start, end time.Duration
	bytes      int64
}

// clientStats is what one closed-loop client measured.
type clientStats struct {
	t0      time.Time // start of the run
	elapsed time.Duration
	done    []opRec // every successful request, in order
	ops     [numClasses]int
	bytes   [numClasses]int64 // verified payload bytes
	failed  int               // transport errors + bad statuses + byte mismatches
	err     error             // first failure, for the report
}

// loadStats is one measured window over all clients.
type loadStats struct {
	clients []clientStats
}

func (l *loadStats) ops(class int) (n int) {
	for i := range l.clients {
		n += l.clients[i].ops[class]
	}
	return n
}

func (l *loadStats) totalOps() int { return l.ops(classGet) + l.ops(classPut) }

func (l *loadStats) bytes(class int) (n int64) {
	for i := range l.clients {
		n += l.clients[i].bytes[class]
	}
	return n
}

func (l *loadStats) totalBytes() int64 { return l.bytes(classGet) + l.bytes(classPut) }

func (l *loadStats) failed() (n int) {
	for i := range l.clients {
		n += l.clients[i].failed
	}
	return n
}

func (l *loadStats) firstErr() error {
	for i := range l.clients {
		if l.clients[i].err != nil {
			return l.clients[i].err
		}
	}
	return nil
}

// lat returns the latencies of one class's requests, in milliseconds.
func (l *loadStats) lat(class int) []float64 {
	var out []float64
	for i := range l.clients {
		for _, op := range l.clients[i].done {
			if op.class == class {
				out = append(out, float64(op.end-op.start)/1e6)
			}
		}
	}
	return out
}

// sliceRates cuts [0, window) into n equal slices and returns every
// slice's payload rate in bytes/s and operation rate in ops/s, all
// clients together. A request's payload (and its count of one) is spread
// evenly over the time the request took, so a 90 ms PUT that straddles a
// slice boundary adds to both sides in proportion. The workloads report
// the median slice: a GC cycle or a neighbour's burst that slows one
// slice does not move it.
func (l *loadStats) sliceRates(window time.Duration, n int) (bytesPerS, opsPerS []float64) {
	bytesPerS, opsPerS = make([]float64, n), make([]float64, n)
	slice := window / time.Duration(n)
	if slice <= 0 {
		return bytesPerS, opsPerS
	}
	for i := range l.clients {
		for _, op := range l.clients[i].done {
			dur := max(op.end-op.start, 1)
			for k := int(op.start / slice); k < n && time.Duration(k)*slice < op.end; k++ {
				lo, hi := max(op.start, time.Duration(k)*slice), min(op.end, time.Duration(k+1)*slice)
				share := float64(hi-lo) / float64(dur)
				bytesPerS[k] += share * float64(op.bytes) / slice.Seconds()
				opsPerS[k] += share / slice.Seconds()
			}
		}
	}
	return bytesPerS, opsPerS
}

// sliceLatency cuts [0, window) into n equal slices, takes the q-quantile
// of the latencies of the requests that finished in each slice, and
// returns the median of those n numbers, in milliseconds: the percentile
// of a typical slice. A stall that hits one slice moves the whole-window
// p95 of a few hundred requests; it does not move this. (The per-layer
// gateway.*_p99_ms are whole-window percentiles and do show it.)
func (l *loadStats) sliceLatency(window time.Duration, n int, q float64) float64 {
	bySlice := make([][]float64, n)
	slice := window / time.Duration(n)
	if slice <= 0 {
		return math.NaN()
	}
	for i := range l.clients {
		for _, op := range l.clients[i].done {
			if k := int(op.end / slice); k < n {
				bySlice[k] = append(bySlice[k], float64(op.end-op.start)/1e6)
			}
		}
	}
	var qs []float64
	for _, lat := range bySlice {
		if len(lat) > 0 {
			sort.Float64s(lat)
			qs = append(qs, quantile(lat, q))
		}
	}
	return median(qs)
}

// maxElapsed is the window as the slowest client saw it.
func (l *loadStats) maxElapsed() time.Duration {
	var m time.Duration
	for i := range l.clients {
		m = max(m, l.clients[i].elapsed)
	}
	return m
}

// loadGen drives one stack with closed-loop clients: each sends its next
// request only after the previous response has been read and verified.
type loadGen struct {
	base string
	http *http.Client
	rec  *recorder // nil = untraced
	rngs []*rand.Rand
	reqs atomic.Uint32 // request ids issued (traced runs)
	// answered counts the requests the server has sent a response to: each
	// has a handler that will run to its end (session.settle waits for them).
	answered atomic.Int64
}

func newLoadGen(base string, clients int, seed int64, rec *recorder) *loadGen {
	lg := &loadGen{
		base: base,
		rec:  rec,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	for i := 0; i < clients; i++ {
		lg.rngs = append(lg.rngs, rand.New(rand.NewSource(seed*1000003+int64(i))))
	}
	return lg
}

func (lg *loadGen) close() { lg.http.CloseIdleConnections() }

// run drives every client for d: next(client, rng) generates that
// client's next request. A client finishes the request it has in flight
// when d runs out. With ops > 0 each client sends exactly ops requests
// instead — the tests' way to a run whose counts repeat. Client rngs
// carry over between calls, so warm-up and measurement are one seeded
// sequence.
func (lg *loadGen) run(d time.Duration, ops int, next func(client int, rng *rand.Rand) request) *loadStats {
	stats := &loadStats{clients: make([]clientStats, len(lg.rngs))}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range lg.rngs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs := &stats.clients[i]
			cs.t0 = start
			buf := make([]byte, 256<<10)
			for n := 0; (ops > 0 && n < ops) || (ops == 0 && time.Now().Before(deadline)); n++ {
				lg.do(next(i, lg.rngs[i]), cs, buf)
			}
			cs.elapsed = time.Since(start)
		}(i)
	}
	wg.Wait()
	return stats
}

// once issues a fixed list of requests, dealt round-robin to the given
// number of clients — preloads and read-back verification, where the work
// is fixed and not the time.
func (lg *loadGen) once(reqs []request, clients int) *loadStats {
	stats := &loadStats{clients: make([]clientStats, clients)}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs := &stats.clients[i]
			cs.t0 = start
			buf := make([]byte, 256<<10)
			for j := i; j < len(reqs); j += clients {
				lg.do(reqs[j], cs, buf)
			}
			cs.elapsed = time.Since(start)
		}(i)
	}
	wg.Wait()
	return stats
}

func (cs *clientStats) fail(err error) {
	cs.failed++
	if cs.err == nil {
		cs.err = err
	}
}

// do sends one request, verifies the response byte for byte and records
// the outcome. buf is the client's reusable read buffer.
func (lg *loadGen) do(rq request, cs *clientStats, buf []byte) {
	var body io.Reader
	if rq.method == http.MethodPut {
		body = bytes.NewReader(rq.body)
	}
	hr, err := http.NewRequest(rq.method, lg.base+"/t/"+tenant+"/"+rq.key, body)
	if err != nil {
		cs.fail(err)
		return
	}
	if rq.ranged {
		hr.Header.Set("Range", "bytes="+strconv.FormatInt(rq.off, 10)+"-"+strconv.FormatInt(rq.off+int64(len(rq.want))-1, 10))
	}
	var spanID, reqID uint32
	if lg.rec != nil {
		spanID = lg.rec.newID()
		reqID = lg.reqs.Add(1)
		hr.Header.Set(hdrSpan, strconv.FormatUint(uint64(spanID), 10))
		hr.Header.Set(hdrReq, strconv.FormatUint(uint64(reqID), 10))
	}
	start := time.Now()
	err = lg.roundTrip(hr, rq, buf)
	lat := time.Since(start)
	if lg.rec != nil {
		end := lg.rec.now()
		lg.rec.add(spanID, 0, reqID, spanClient, end-int64(lat), end)
	}
	if err != nil {
		cs.fail(fmt.Errorf("%s %s: %w", rq.method, rq.key, err))
		return
	}
	class, n := classGet, len(rq.want)
	switch rq.method {
	case http.MethodPut:
		class, n = classPut, len(rq.body)
	case http.MethodHead:
		n = 0 // want only carries the expected Content-Length
	}
	cs.ops[class]++
	cs.bytes[class] += int64(n)
	cs.done = append(cs.done, opRec{class: class, start: start.Sub(cs.t0), end: start.Sub(cs.t0) + lat, bytes: int64(n)})
}

func (lg *loadGen) roundTrip(hr *http.Request, rq request, buf []byte) error {
	resp, err := lg.http.Do(hr)
	if err != nil {
		return err
	}
	lg.answered.Add(1)
	defer resp.Body.Close()
	wantStatus := http.StatusOK
	if rq.ranged {
		wantStatus = http.StatusPartialContent
	}
	if resp.StatusCode != wantStatus {
		_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
		return fmt.Errorf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if rq.method == http.MethodHead {
		if resp.ContentLength != int64(len(rq.want)) {
			return fmt.Errorf("HEAD says %d bytes, want %d", resp.ContentLength, len(rq.want))
		}
		return nil
	}
	// Compare the body against the expected bytes as it streams in.
	got := 0
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if got+n > len(rq.want) || !bytes.Equal(buf[:n], rq.want[got:got+n]) {
				_, _ = io.Copy(io.Discard, resp.Body)
				return fmt.Errorf("body differs from pattern in bytes [%d,%d)", got, got+n)
			}
			got += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if got != len(rq.want) {
		return fmt.Errorf("body is %d bytes, want %d", got, len(rq.want))
	}
	return nil
}
