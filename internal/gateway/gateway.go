// Package gateway serves a store.Store over HTTP with an S3-flavored
// surface: per-tenant key namespaces under /t/<tenant>/<key>, ranged
// GETs that read only the blocks a range covers, multipart uploads whose
// state survives kill -9 (part data rides the store's WAL-backed commit
// path; the upload record lives in the same metadata plane), token-
// bucket admission control that answers 429 + Retry-After instead of
// queueing, and a JSON /metrics endpoint.
//
// The gateway holds no durable state of its own. Everything it persists
// goes through the store — objects via PutReader, upload records via
// PutUploadRecord — so a gateway process is freely killable and
// replaceable: reopen the store, hand it to a new Gateway, and every
// committed object and in-flight multipart upload is exactly where it
// was.
//
// Error mapping is typed end to end: handlers test the store's exported
// sentinels with errors.Is (never message strings) and translate
// ErrNotFound→404, ErrBadKey→400, ErrBadRange→416, ErrUnrecoverable and
// meta.ErrClosed→503; the gateway's own errBadRequest (a malformed
// request about a valid name) is 400 too.
package gateway

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/store"
)

// Config configures a Gateway. Zero fields take defaults (no auth, no
// admission limits).
type Config struct {
	// Store is the object store to serve. Required.
	Store *store.Store
	// Tokens maps tenant → bearer token. A tenant with an entry must
	// present "Authorization: Bearer <token>" on every request; tenants
	// without one are open (the loopback-by-default deployment).
	Tokens map[string]string
	// BytesPerSec is each tenant's byte-rate budget across puts and gets
	// (0 = unlimited). One token bucket per tenant, shared by all its
	// connections; when the bucket is in debt new requests get 429 with
	// Retry-After instead of queueing — foreground QoS on the same
	// machinery that paces the repair and scrub datapaths.
	BytesPerSec int64
	// MaxInflight caps each tenant's concurrent requests (0 = unlimited).
	// Excess requests get 429.
	MaxInflight int64
}

// Gateway is an http.Handler serving one store.
type Gateway struct {
	st  *store.Store
	cfg Config
	m   metricsState

	mu      sync.Mutex
	tenants map[string]*tenant
}

// tenant is one tenant's admission state.
type tenant struct {
	lim      *store.Limiter
	inflight atomic.Int64
}

// New builds a Gateway over cfg.Store.
func New(cfg Config) (*Gateway, error) {
	if cfg.Store == nil {
		return nil, errors.New("gateway: Config.Store is required")
	}
	g := &Gateway{st: cfg.Store, cfg: cfg, tenants: make(map[string]*tenant)}
	g.m.init()
	return g, nil
}

// Store returns the store the gateway serves.
func (g *Gateway) Store() *store.Store { return g.st }

func (g *Gateway) tenantState(name string) *tenant {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.tenants[name]
	if !ok {
		t = &tenant{lim: store.NewLimiter(g.cfg.BytesPerSec)}
		g.tenants[name] = t
	}
	return t
}

// ServeHTTP routes:
//
//	GET  /metrics                      gateway + store counters, JSON
//	GET  /t/<tenant>?prefix=P          list the tenant's keys
//	PUT  /t/<tenant>/<key>             store an object
//	GET  /t/<tenant>/<key>             read it (Range: bytes=... honored)
//	HEAD /t/<tenant>/<key>             size without the body
//	DELETE /t/<tenant>/<key>           remove it
//	POST /t/<tenant>/<key>?uploads     begin a multipart upload
//	PUT  /t/<tenant>/<key>?uploadId=U&partNumber=N   upload one part
//	GET  /t/<tenant>/<key>?uploadId=U  list committed parts
//	POST /t/<tenant>/<key>?uploadId=U  complete (assemble the object)
//	DELETE /t/<tenant>/<key>?uploadId=U  abort
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		writeJSON(w, http.StatusOK, g.Metrics())
		return
	case "/healthz":
		g.handleHealthz(w)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/t/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	tenantName, key, _ := strings.Cut(rest, "/")
	verb := r.Method
	if key == "" && r.Method == http.MethodGet {
		verb = "LIST"
	}
	vs := g.m.verb(verb)
	start := time.Now()
	defer func() { vs.Observe(time.Since(start)) }()

	// Validate tenant and key before anything touches a backend: the
	// store's charset, plus "no leading dot" for tenants so the
	// gateway's reserved .mpu/ part namespace cannot be addressed (or
	// shadowed) from the wire.
	if err := validateTenant(tenantName); err != nil {
		g.writeError(w, err)
		return
	}
	if key != "" {
		if err := store.ValidateName(tenantName + "/" + key); err != nil {
			g.writeError(w, err)
			return
		}
	}
	if !g.authorized(r, tenantName) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="xorbasd"`)
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	t := g.tenantState(tenantName)
	if max := g.cfg.MaxInflight; max > 0 {
		if t.inflight.Add(1) > max {
			t.inflight.Add(-1)
			g.reject(w, time.Second)
			return
		}
		defer t.inflight.Add(-1)
	}

	q := r.URL.Query()
	name := tenantName + "/" + key
	switch {
	case key == "":
		if r.Method != http.MethodGet {
			g.methodNotAllowed(w)
			return
		}
		g.handleList(w, tenantName, q.Get("prefix"))
	case q.Has("uploads") && r.Method == http.MethodPost:
		g.beginUpload(w, tenantName, key)
	case q.Get("uploadId") != "":
		id := q.Get("uploadId")
		switch r.Method {
		case http.MethodPut:
			g.putPart(w, r, t, id, tenantName, key, q.Get("partNumber"))
		case http.MethodGet:
			g.listParts(w, id, tenantName, key)
		case http.MethodPost:
			g.completeUpload(w, t, id, tenantName, key)
		case http.MethodDelete:
			g.abortUpload(w, id, tenantName, key)
		default:
			g.methodNotAllowed(w)
		}
	default:
		switch r.Method {
		case http.MethodPut:
			g.handlePut(w, r, t, name)
		case http.MethodGet:
			g.handleGet(w, r, t, name)
		case http.MethodHead:
			g.handleHead(w, name)
		case http.MethodDelete:
			g.handleDelete(w, name)
		default:
			g.methodNotAllowed(w)
		}
	}
}

// validateTenant holds tenant names to a single store-charset path
// segment that does not start with '.' — the leading-dot namespace is
// reserved for gateway internals (multipart part objects under .mpu/).
func validateTenant(tenant string) error {
	if tenant == "" {
		return fmt.Errorf("%w: empty tenant", store.ErrBadKey)
	}
	if tenant[0] == '.' {
		return fmt.Errorf("%w: tenant %q starts with '.'", store.ErrBadKey, tenant)
	}
	if strings.Contains(tenant, "/") {
		return fmt.Errorf("%w: tenant %q contains '/'", store.ErrBadKey, tenant)
	}
	return store.ValidateName(tenant)
}

// authorized enforces the tenant's bearer token when one is configured.
func (g *Gateway) authorized(r *http.Request, tenant string) bool {
	want, ok := g.cfg.Tokens[tenant]
	if !ok {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// admit runs the tenant's token bucket for n bytes; on refusal it writes
// the 429 and reports false.
func (g *Gateway) admit(w http.ResponseWriter, t *tenant, n int64) bool {
	wait, ok := t.lim.Admit(n)
	if !ok {
		g.reject(w, wait)
		return false
	}
	return true
}

// reject answers 429 with a Retry-After hint (whole seconds, floored at
// 1 — small waits still need a positive hint).
func (g *Gateway) reject(w http.ResponseWriter, wait time.Duration) {
	g.m.rejected.Add(1)
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, "tenant over admission budget", http.StatusTooManyRequests)
}

func (g *Gateway) methodNotAllowed(w http.ResponseWriter) {
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
}

// errBadRequest marks a client error that is not about the object name,
// such as a bad multipart partNumber or completing an upload with no
// parts, so its 400 body does not read "invalid object name".
var errBadRequest = errors.New("gateway: bad request")

// writeError maps a store/meta error onto an HTTP status via errors.Is
// — the one place gateway errors become status codes, with no string
// matching anywhere.
func (g *Gateway) writeError(w http.ResponseWriter, err error) {
	var code int
	switch {
	case errors.Is(err, store.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, store.ErrBadKey), errors.Is(err, errBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, store.ErrBadRange):
		code = http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, store.ErrUnrecoverable), errors.Is(err, meta.ErrClosed):
		code = http.StatusServiceUnavailable
	default:
		code = http.StatusInternalServerError
	}
	if code == http.StatusServiceUnavailable {
		// Unrecoverable reads and closed planes are transient from the
		// client's seat — repair or a restart may fix them — so tell
		// clients when to come back instead of letting them hammer.
		w.Header().Set("Retry-After", strconv.FormatInt(int64(degradedRetryAfter/time.Second), 10))
	}
	http.Error(w, err.Error(), code)
}

// degradedRetryAfter is the Retry-After hint on 503s: long enough for a
// repair round or a monitor revival to land, short enough that clients
// notice recovery quickly.
const degradedRetryAfter = 5 * time.Second

// shedWrite answers 503 + Retry-After when the store has too few live
// nodes to place a full stripe — reads keep serving degraded, but a
// write would fail mid-stripe and leave garbage to roll back, so the
// gateway refuses it up front. Reports whether the request was shed.
func (g *Gateway) shedWrite(w http.ResponseWriter) bool {
	if !g.st.WriteDegraded() {
		return false
	}
	w.Header().Set("Retry-After", strconv.FormatInt(int64(degradedRetryAfter/time.Second), 10))
	http.Error(w, "write degraded: too few live nodes for a full stripe", http.StatusServiceUnavailable)
	return true
}

// healthNode is one node's row in the /healthz report.
type healthNode struct {
	Node        int     `json:"node"`
	Alive       bool    `json:"alive"`
	State       string  `json:"state"`
	ConsecFails int     `json:"consec_fails,omitempty"`
	WindowOps   int     `json:"window_ops,omitempty"`
	ErrRate     float64 `json:"err_rate,omitempty"`
	P50Ms       float64 `json:"p50_ms,omitempty"`
	P99Ms       float64 `json:"p99_ms,omitempty"`
	LastErr     string  `json:"last_err,omitempty"`
}

// healthReport is the /healthz body: overall status plus the per-node
// failure-plane view (liveness as the store records it, the transport's
// outcome window as the backend sees it, membership state as planned).
type healthReport struct {
	Status     string                 `json:"status"`
	LiveNodes  int                    `json:"live_nodes"`
	Membership store.MembershipStatus `json:"membership"`
	Nodes      []healthNode           `json:"nodes"`
}

// handleHealthz always answers 200 — a gateway that can report health
// is up; degradation is in the body, not the status code, so probes
// distinguish "down" from "degraded but serving reads".
func (g *Gateway) handleHealthz(w http.ResponseWriter) {
	rep := healthReport{Status: "ok", LiveNodes: g.st.LiveNodes(), Membership: g.st.MembershipStatus()}
	members := g.st.Members()
	for _, info := range g.st.NodeHealth() {
		state := string(store.NodeDead)
		if info.Node >= 0 && info.Node < len(members) {
			state = string(members[info.Node].State)
		}
		rep.Nodes = append(rep.Nodes, healthNode{
			Node:        info.Node,
			Alive:       info.Alive,
			State:       state,
			ConsecFails: info.ConsecFails,
			WindowOps:   info.WindowOps,
			ErrRate:     info.WindowErrRate,
			P50Ms:       float64(info.P50.Microseconds()) / 1e3,
			P99Ms:       float64(info.P99.Microseconds()) / 1e3,
			LastErr:     info.LastErr,
		})
	}
	// "Degraded" is judged against the planned topology, not raw node
	// count: a retired (dead) member missing is by design, a draining one
	// is still expected up.
	ms := rep.Membership
	expected := ms.Active + ms.Joining + ms.Draining
	if g.st.WriteDegraded() {
		rep.Status = "degraded-readonly"
	} else if rep.LiveNodes < expected {
		rep.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, rep)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// countingReader counts object bytes received into the gateway-wide
// counter and a local total (the post-hoc charge for chunked uploads).
type countingReader struct {
	r   io.Reader
	n   int64
	acc *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	c.acc.Add(int64(n))
	return n, err
}

// countingWriter counts object bytes served.
type countingWriter struct {
	w   io.Writer
	acc *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.acc.Add(int64(n))
	return n, err
}

// handlePut stores the request body as one object. A declared
// Content-Length is admitted up front (429 before any byte moves); a
// chunked body is admitted at zero and charged after the fact, so the
// debt lands on the tenant's next request.
func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request, t *tenant, name string) {
	if g.shedWrite(w) {
		return
	}
	declared := r.ContentLength
	if declared < 0 {
		declared = 0
	}
	if !g.admit(w, t, declared) {
		return
	}
	cr := &countingReader{r: r.Body, acc: &g.m.bytesIn}
	if err := g.st.PutReader(name, cr); err != nil {
		g.writeError(w, err)
		return
	}
	if r.ContentLength < 0 {
		t.lim.Charge(cr.n)
	}
	w.WriteHeader(http.StatusOK)
}

// handleGet serves an object, honoring a single `Range: bytes=...`
// request with 206/416 semantics. A ranged read goes through
// Store.GetRange, which fetches only the data blocks the range covers.
func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request, t *tenant, name string) {
	st, err := g.st.Stat(name)
	if err != nil {
		g.writeError(w, err)
		return
	}
	size := int64(st.Size)
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w, acc: &g.m.bytesOut}
	if rng := r.Header.Get("Range"); rng != "" {
		off, length, ok, satisfiable := parseRange(rng, size)
		if ok && !satisfiable {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
			http.Error(w, "requested range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		if ok {
			if !g.admit(w, t, length) {
				return
			}
			w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
			w.WriteHeader(http.StatusPartialContent)
			if _, err := g.st.GetRange(name, off, length, cw); err != nil {
				// Status is out the door; all we can do is cut the body
				// short so the client sees a truncated 206, not a clean one.
				return
			}
			return
		}
		// An unparseable Range header is ignored per RFC 7233 — fall
		// through to the full object.
	}
	if !g.admit(w, t, size) {
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = g.st.GetWriter(name, cw)
}

// parseRange interprets a single-range `bytes=` header against an object
// of the given size. ok=false means the header is malformed or uses
// features the gateway does not serve (multiple ranges) — the caller
// ignores it. ok=true, satisfiable=false is the 416 case. Otherwise
// [off, off+length) is the window, clamped to the object.
func parseRange(h string, size int64) (off, length int64, ok, satisfiable bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false, false
	}
	lo, hi, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false, false
	}
	if lo == "" {
		// Suffix range: last N bytes.
		n, valid := bytePos(hi)
		if !valid {
			return 0, 0, false, false
		}
		if n == 0 || size == 0 {
			return 0, 0, true, false
		}
		if n > size {
			n = size
		}
		return size - n, n, true, true
	}
	start, valid := bytePos(lo)
	if !valid {
		return 0, 0, false, false
	}
	end := size - 1 // open-ended "a-"
	if hi != "" {
		if end, valid = bytePos(hi); !valid || end < start {
			return 0, 0, false, false
		}
	}
	if start >= size {
		return 0, 0, true, false
	}
	return start, min(end, size-1) - start + 1, true, true
}

// bytePos parses one position of a byte range, which RFC 7233 §2.1
// spells 1*DIGIT: no sign, no space. One past int64 is refused too.
func bytePos(s string) (int64, bool) {
	n, err := strconv.ParseUint(s, 10, 63)
	return int64(n), err == nil
}

// handleHead answers the object's size with no body.
func (g *Gateway) handleHead(w http.ResponseWriter, name string) {
	st, err := g.st.Stat(name)
	if err != nil {
		g.writeError(w, err)
		return
	}
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(st.Size))
	w.WriteHeader(http.StatusOK)
}

func (g *Gateway) handleDelete(w http.ResponseWriter, name string) {
	if err := g.st.Delete(name); err != nil {
		g.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ListEntry is one key in a tenant listing.
type ListEntry struct {
	Key  string `json:"key"`
	Size int    `json:"size"`
}

// ListResult is the tenant-listing JSON document.
type ListResult struct {
	Tenant  string      `json:"tenant"`
	Prefix  string      `json:"prefix,omitempty"`
	Objects []ListEntry `json:"objects"`
}

// handleList lists the tenant's keys under an optional prefix, sorted.
// The store scan is already tenant-scoped (object names embed the
// tenant), so one tenant can never see another's keys.
func (g *Gateway) handleList(w http.ResponseWriter, tenant, prefix string) {
	full := tenant + "/" + prefix
	objs := g.st.ObjectsWithPrefix(full)
	out := ListResult{Tenant: tenant, Prefix: prefix, Objects: []ListEntry{}}
	for _, o := range objs {
		key, ok := strings.CutPrefix(o.Name, tenant+"/")
		if !ok {
			continue
		}
		out.Objects = append(out.Objects, ListEntry{Key: key, Size: o.Size})
	}
	sort.Slice(out.Objects, func(i, j int) bool { return out.Objects[i].Key < out.Objects[j].Key })
	writeJSON(w, http.StatusOK, out)
}
