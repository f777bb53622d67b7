package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/netblock"
	"repro/internal/store"
)

// Tracing lives entirely in the harness: spans are recorded around the
// calls into each layer through seams the program already has — the
// store.Config.Codec and store.Config.Backend interfaces and the
// http.Handler in front of the gateway — so no program code changes and
// an untraced run executes exactly what the daemon ships.

// Span names. The prefix before the dot is the layer.
const (
	spanClient      = "client.request"    // load generator, around one HTTP request
	spanHandler     = "gateway.handler"   // around Gateway.ServeHTTP
	spanRepair      = "store.repair"      // around ScrubPresence + Drain
	spanWrite       = "netblock.write"    // Backend.Write / WriteOwned
	spanRead        = "netblock.read"     // Backend.Read
	spanDelete      = "netblock.delete"   // Backend.Delete
	spanEncode      = "codec.encode"      // Codec.Encode / EncodeInto
	spanReconstruct = "codec.reconstruct" // Codec.Reconstruct*
	spanVerify      = "codec.verify"      // Codec.Verify / LocateCorruption (scrub)
)

// span is one timed interval. Times are nanoseconds since the
// recorder's epoch. Parent is the span that caused this one (0 = none
// known) and Req the client request it belongs to (0 = background).
type span struct {
	ID, Parent, Req uint32
	Name            string
	Start, End      int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It also resolves
// parents for spans recorded below the store, where no request context
// reaches: a backend operation's key embeds the object name, which
// identifies the in-flight handler working on that object; a codec call
// carries no key and is attributed to the in-flight handler only when
// there is exactly one (otherwise to the open repair phase, if any).
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	on     bool // inside the measured window: spans are kept
	spans  []span
	nextID uint32
	// open maps the block-key form of an object name to its in-flight
	// handler span; phase is the open repair span.
	open  map[string]openSpan
	phase openSpan
}

type openSpan struct{ id, req uint32 }

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: make(map[string]openSpan)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newID issues a span id before the span ends, for spans that children
// will name as their parent.
func (r *recorder) newID() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// start opens the measured window: what preload and warm-up recorded is
// dropped. stop closes it; later spans (read-back checks) are dropped
// too. Both are called with no request in flight.
func (r *recorder) start() {
	r.mu.Lock()
	r.spans, r.on = r.spans[:0], true
	r.mu.Unlock()
}

func (r *recorder) stop() {
	r.mu.Lock()
	r.on = false
	r.mu.Unlock()
}

// add records a finished span; id 0 means "issue one".
func (r *recorder) add(id, parent, req uint32, name string, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// keyName maps an object name to the form it takes inside block keys
// (store.blockKey replaces every byte outside [A-Za-z0-9._-] with '_').
func keyName(name string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			return c
		}
		return '_'
	}, name)
}

// keyObject strips the ".gGEN.sSTRIPE.bPOS" suffix off a block key.
func keyObject(key string) string {
	for i := 0; i < 3; i++ {
		j := strings.LastIndexByte(key, '.')
		if j < 0 {
			return key
		}
		key = key[:j]
	}
	return key
}

func (r *recorder) parentForKey(key string) openSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.open[keyObject(key)]; ok {
		return p
	}
	return r.phase
}

func (r *recorder) parentForCodec() openSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) == 1 {
		for _, p := range r.open {
			return p
		}
	}
	return r.phase
}

// beginPhase opens a repair span; the returned func closes it.
func (r *recorder) beginPhase() func() {
	id := r.newID()
	start := r.now()
	r.mu.Lock()
	r.phase = openSpan{id: id}
	r.mu.Unlock()
	return func() {
		end := r.now()
		r.mu.Lock()
		r.phase = openSpan{}
		r.mu.Unlock()
		r.add(id, 0, 0, spanRepair, start, end)
	}
}

// Trace headers: the load generator names its client span and request
// so the handler span can point at them.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// tracedHandler wraps the gateway.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 32)
	req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 32)
	id := h.rec.newID()
	name := keyName(strings.TrimPrefix(r.URL.Path, "/t/"))
	h.rec.mu.Lock()
	h.rec.open[name] = openSpan{id: id, req: uint32(req)}
	h.rec.mu.Unlock()
	start := h.rec.now()
	h.inner.ServeHTTP(w, r)
	end := h.rec.now()
	h.rec.mu.Lock()
	if h.rec.open[name].id == id {
		delete(h.rec.open, name)
	}
	h.rec.mu.Unlock()
	h.rec.add(id, uint32(parent), uint32(req), spanHandler, start, end)
}

// tracedBackend wraps the netblock client the stack hands the store. It
// forwards every optional interface the client implements — the store
// discovers them by type assertion, so a wrapper missing one would put
// the traced run on a different code path than the untraced one.
type tracedBackend struct {
	inner *netblock.Client
	rec   *recorder
}

func (b *tracedBackend) timed(name, key string, fn func() error) error {
	p := b.rec.parentForKey(key)
	start := b.rec.now()
	err := fn()
	b.rec.add(0, p.id, p.req, name, start, b.rec.now())
	return err
}

func (b *tracedBackend) Write(node int, key string, data []byte) error {
	return b.timed(spanWrite, key, func() error { return b.inner.Write(node, key, data) })
}

func (b *tracedBackend) WriteOwned(node int, key string, data []byte) error {
	return b.timed(spanWrite, key, func() error { return b.inner.WriteOwned(node, key, data) })
}

func (b *tracedBackend) Read(node int, key string) (out []byte, err error) {
	err = b.timed(spanRead, key, func() error {
		out, err = b.inner.Read(node, key)
		return err
	})
	return out, err
}

func (b *tracedBackend) Delete(node int, key string) error {
	return b.timed(spanDelete, key, func() error { return b.inner.Delete(node, key) })
}

func (b *tracedBackend) ReadBlockTo(node int, key string, w io.Writer) (n int64, err error) {
	err = b.timed(spanRead, key, func() error {
		n, err = b.inner.ReadBlockTo(node, key, w)
		return err
	})
	return n, err
}

func (b *tracedBackend) WriteBlockFrom(node int, key string, r io.Reader) (n int64, err error) {
	err = b.timed(spanWrite, key, func() error {
		n, err = b.inner.WriteBlockFrom(node, key, r)
		return err
	})
	return n, err
}

func (b *tracedBackend) WireTraffic() (sent, recv []int64)  { return b.inner.WireTraffic() }
func (b *tracedBackend) AddNode(addr string) (int, error)   { return b.inner.AddNode(addr) }
func (b *tracedBackend) Nodes() int                         { return b.inner.Nodes() }
func (b *tracedBackend) CheckNode(node int) error           { return b.inner.CheckNode(node) }
func (b *tracedBackend) NodeHealth() []store.NodeHealthInfo { return b.inner.NodeHealth() }

// tracedCodec wraps the store's codec, timing the calls that do field
// arithmetic and forwarding the rest untouched.
type tracedCodec struct {
	inner store.Codec
	rec   *recorder
}

func (c *tracedCodec) timed(name string, fn func()) {
	p := c.rec.parentForCodec()
	start := c.rec.now()
	fn()
	c.rec.add(0, p.id, p.req, name, start, c.rec.now())
}

func (c *tracedCodec) Name() string          { return c.inner.Name() }
func (c *tracedCodec) K() int                { return c.inner.K() }
func (c *tracedCodec) NStored() int          { return c.inner.NStored() }
func (c *tracedCodec) RepairGroups() [][]int { return c.inner.RepairGroups() }

func (c *tracedCodec) PlanReads(i int, avail []bool) ([]int, bool, error) {
	return c.inner.PlanReads(i, avail)
}

func (c *tracedCodec) Encode(data [][]byte, workers int) (out [][]byte, err error) {
	c.timed(spanEncode, func() { out, err = c.inner.Encode(data, workers) })
	return out, err
}

func (c *tracedCodec) EncodeInto(data, parity [][]byte, workers int) (err error) {
	c.timed(spanEncode, func() { err = c.inner.EncodeInto(data, parity, workers) })
	return err
}

func (c *tracedCodec) ReconstructBlock(stripe [][]byte, i int) (payload []byte, light bool, err error) {
	c.timed(spanReconstruct, func() { payload, light, err = c.inner.ReconstructBlock(stripe, i) })
	return payload, light, err
}

func (c *tracedCodec) ReconstructMany(stripe [][]byte, positions []int) (payloads [][]byte, light []bool, err error) {
	c.timed(spanReconstruct, func() { payloads, light, err = c.inner.ReconstructMany(stripe, positions) })
	return payloads, light, err
}

func (c *tracedCodec) ReconstructManyInto(stripe [][]byte, positions []int, dst [][]byte) (filled, light []bool, err error) {
	c.timed(spanReconstruct, func() { filled, light, err = c.inner.ReconstructManyInto(stripe, positions, dst) })
	return filled, light, err
}

func (c *tracedCodec) Verify(stripe [][]byte) (ok bool, err error) {
	c.timed(spanVerify, func() { ok, err = c.inner.Verify(stripe) })
	return ok, err
}

func (c *tracedCodec) LocateCorruption(stripe [][]byte) (bad []int, err error) {
	c.timed(spanVerify, func() { bad, err = c.inner.LocateCorruption(stripe) })
	return bad, err
}

// --- analysis ---

type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by the intervals. It sorts
// its argument.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	var cur interval
	for i, v := range iv {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(iv) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// traceSummary is what the per-layer span metrics are computed from.
type traceSummary struct {
	rootNs int64 // Σ client-request and repair spans: the time users and repairs waited
	// busyNs[name] is, summed over parents, the time at least one span of
	// that name was open under the parent. Within one request a layer's
	// parallel calls (a stripe's pooled writes) count once; across
	// concurrent requests they add, like rootNs does.
	busyNs map[string]int64
	// coreSelfNs is Σ over handler and repair spans of the time no child
	// span (codec or backend) was open: gateway + store + meta self time.
	coreSelfNs, coreNs int64
	// fetchWaitNs is the part of repair spans where reads were in flight
	// and neither decode nor write-back ran.
	fetchWaitNs, repairNs int64
	httpOverheadUs        []float64 // client span − handler span, per request
	backendOpUs           []float64 // every netblock span's duration
}

func (r *recorder) summarize() traceSummary {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()

	sum := traceSummary{busyNs: make(map[string]int64)}
	clientDur := make(map[uint32]int64) // client span id → duration
	children := make(map[uint32][]span) // parent id → codec/backend spans
	var parents []span                  // handler and repair spans
	for _, s := range spans {
		switch s.Name {
		case spanClient:
			sum.rootNs += s.dur()
			clientDur[s.ID] = s.dur()
		case spanRepair:
			sum.rootNs += s.dur()
			parents = append(parents, s)
		case spanHandler:
			parents = append(parents, s)
		default:
			if strings.HasPrefix(s.Name, "netblock.") {
				sum.backendOpUs = append(sum.backendOpUs, float64(s.dur())/1e3)
			}
			if s.Parent == 0 {
				// No parent known: count it on its own. Codec calls
				// within one request are serial, so nothing is lost.
				sum.busyNs[s.Name] += s.dur()
				continue
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, p := range parents {
		if p.Name == spanHandler {
			if cd, ok := clientDur[p.Parent]; ok {
				sum.httpOverheadUs = append(sum.httpOverheadUs, float64(cd-p.dur())/1e3)
			}
		}
		byName := make(map[string][]interval)
		var all, work []interval
		for _, c := range children[p.ID] {
			iv := interval{max(c.Start, p.Start), min(c.End, p.End)}
			if iv.hi <= iv.lo {
				continue
			}
			byName[c.Name] = append(byName[c.Name], iv)
			all = append(all, iv)
			if c.Name != spanRead {
				work = append(work, iv)
			}
		}
		for name, iv := range byName {
			sum.busyNs[name] += unionLen(iv)
		}
		allLen := unionLen(all)
		sum.coreNs += p.dur()
		sum.coreSelfNs += p.dur() - allLen
		if p.Name == spanRepair {
			sum.repairNs += p.dur()
			// |reads ∖ work| = |reads ∪ work| − |work|
			sum.fetchWaitNs += allLen - unionLen(work)
		}
	}
	return sum
}

// maxTraceFileSpans bounds the span file: serve-hot-small records a few
// hundred thousand spans a second and the file is for reading, not
// for replaying the run.
const maxTraceFileSpans = 200000

// writeFile dumps the spans as JSON: {"columns": [...], "spans": [[...], ...]}.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	truncated := len(spans) > maxTraceFileSpans
	if truncated {
		spans = spans[:maxTraceFileSpans]
	}
	rows := make([][]any, len(spans))
	for i, s := range spans {
		rows[i] = []any{s.ID, s.Parent, s.Req, s.Name, s.Start / 1e3, s.dur() / 1e3}
	}
	doc := map[string]any{
		"columns":   []string{"id", "parent", "req", "name", "start_us", "dur_us"},
		"truncated": truncated,
		"spans":     rows,
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
