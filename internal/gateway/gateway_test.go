package gateway

import (
	"bytes"
	crand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/stats"
	"repro/internal/store"
)

// newTestGateway serves a fresh in-memory store over httptest. Tests
// that need durability across a reopen build their own store instead.
func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		s, err := store.New(store.Config{BlockSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		cfg.Store = s
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)
	return g, srv
}

// do issues one request and returns the response with its body drained.
func do(t *testing.T, method, url string, body []byte, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func wantStatus(t *testing.T, resp *http.Response, body []byte, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: got %d (%s), want %d",
			resp.Request.Method, resp.Request.URL, resp.StatusCode, strings.TrimSpace(string(body)), want)
	}
}

func testBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestHTTPRoundTrip(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	obj := testBytes(1, 7000)

	resp, body := do(t, "PUT", srv.URL+"/t/acme/docs/report.bin", obj)
	wantStatus(t, resp, body, 200)

	resp, body = do(t, "GET", srv.URL+"/t/acme/docs/report.bin", nil)
	wantStatus(t, resp, body, 200)
	if !bytes.Equal(body, obj) {
		t.Fatal("GET returned different bytes than PUT stored")
	}
	if got := resp.Header.Get("Accept-Ranges"); got != "bytes" {
		t.Fatalf("Accept-Ranges = %q", got)
	}

	resp, body = do(t, "HEAD", srv.URL+"/t/acme/docs/report.bin", nil)
	wantStatus(t, resp, body, 200)
	if got := resp.Header.Get("Content-Length"); got != "7000" {
		t.Fatalf("HEAD Content-Length = %q, want 7000", got)
	}

	// Listing sees the key, respects the prefix filter, and sorts.
	do(t, "PUT", srv.URL+"/t/acme/docs/appendix.bin", testBytes(2, 10))
	do(t, "PUT", srv.URL+"/t/acme/misc/x", testBytes(3, 10))
	resp, body = do(t, "GET", srv.URL+"/t/acme?prefix=docs/", nil)
	wantStatus(t, resp, body, 200)
	var list ListResult
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Objects) != 2 || list.Objects[0].Key != "docs/appendix.bin" || list.Objects[1].Key != "docs/report.bin" {
		t.Fatalf("list = %+v", list.Objects)
	}

	resp, body = do(t, "DELETE", srv.URL+"/t/acme/docs/report.bin", nil)
	wantStatus(t, resp, body, 204)
	resp, body = do(t, "GET", srv.URL+"/t/acme/docs/report.bin", nil)
	wantStatus(t, resp, body, 404)
	resp, body = do(t, "DELETE", srv.URL+"/t/acme/docs/report.bin", nil)
	wantStatus(t, resp, body, 404)
}

func TestRangeConformance(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	// Block 256, k=10 → 2560-byte stripes; three-and-a-bit stripes.
	obj := testBytes(4, 3*2560+100)
	size := len(obj)
	url := srv.URL + "/t/acme/big"
	resp, body := do(t, "PUT", url, obj)
	wantStatus(t, resp, body, 200)

	cases := []struct {
		hdr    string
		lo, hi int // inclusive byte window of the expected 206
	}{
		{"bytes=0-99", 0, 99},
		{"bytes=100-100", 100, 100},
		{"bytes=2555-2565", 2555, 2565},      // straddles a stripe boundary
		{"bytes=-100", size - 100, size - 1}, // suffix
		{"bytes=5000-", 5000, size - 1},      // open-ended
		{"bytes=0-99999999", 0, size - 1},    // end clamps
	}
	for _, c := range cases {
		resp, body := do(t, "GET", url, nil, "Range", c.hdr)
		wantStatus(t, resp, body, 206)
		if !bytes.Equal(body, obj[c.lo:c.hi+1]) {
			t.Fatalf("Range %q: wrong bytes (%d returned)", c.hdr, len(body))
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", c.lo, c.hi, size)
		if got := resp.Header.Get("Content-Range"); got != wantCR {
			t.Fatalf("Range %q: Content-Range = %q, want %q", c.hdr, got, wantCR)
		}
	}

	// Unsatisfiable: start past the end.
	resp, body = do(t, "GET", url, nil, "Range", fmt.Sprintf("bytes=%d-", size))
	wantStatus(t, resp, body, 416)
	if got := resp.Header.Get("Content-Range"); got != fmt.Sprintf("bytes */%d", size) {
		t.Fatalf("416 Content-Range = %q", got)
	}

	// Malformed and multi-range headers are ignored: full 200.
	// Positions are digits only (RFC 7233 §2.1), so a signed one is
	// malformed too, and so is the end of a range that starts past the
	// object.
	for _, h := range []string{"bytes=abc-def", "lines=0-10", "bytes=0-1,5-6", "bytes=9-5", "bytes=+0-+9", "bytes=-+5", "bytes=99999-x"} {
		resp, body := do(t, "GET", url, nil, "Range", h)
		wantStatus(t, resp, body, 200)
		if !bytes.Equal(body, obj) {
			t.Fatalf("Range %q: expected the full object", h)
		}
	}

	// The efficiency claim: a small ranged GET reads only the covering
	// blocks from the backend, not the whole object.
	before := g.Store().Metrics().ReadBytes
	resp, body = do(t, "GET", url, nil, "Range", "bytes=300-349")
	wantStatus(t, resp, body, 206)
	delta := g.Store().Metrics().ReadBytes - before
	// 50 bytes inside one 256-byte block; allow framing overhead but
	// nothing near the ~8KB object.
	if delta > 2*256 {
		t.Fatalf("50-byte ranged GET read %d backend bytes, want about one block", delta)
	}
}

func TestTypedErrorsToHTTP(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/t/acme/missing", 404},
		{"HEAD", "/t/acme/missing", 404},
		{"DELETE", "/t/acme/missing", 404},
		{"PUT", "/t/acme/bad%20key", 400}, // space outside the store charset
		{"PUT", "/t/acme/a/../b", 400},    // dot-dot segment
		{"PUT", "/t/.mpu/id/p00001", 400}, // reserved namespace
		{"PUT", "/t/.hidden/x", 400},      // leading-dot tenant
		{"GET", "/t/bad%20tenant", 400},
		{"GET", "/x/acme/key", 404}, // outside /t/
		{"PATCH", "/t/acme/key", 405},
	} {
		resp, body := do(t, c.method, srv.URL+c.path, []byte("x"))
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s: got %d (%s), want %d", c.method, c.path, resp.StatusCode, body, c.want)
		}
	}
}

// TestErrorMapping pins the writeError table against wrapped sentinels —
// matching must survive arbitrary %w nesting.
func TestErrorMapping(t *testing.T) {
	g, _ := newTestGateway(t, Config{})
	for _, c := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("lost: %w", fmt.Errorf("deep: %w", store.ErrNotFound)), 404},
		{fmt.Errorf("x: %w", store.ErrObjectNotFound), 404},
		{fmt.Errorf("x: %w", store.ErrBlockNotFound), 404},
		{fmt.Errorf("x: %w", store.ErrBadKey), 400},
		{fmt.Errorf("x: %w", errBadRequest), 400},
		{fmt.Errorf("x: %w", store.ErrBadRange), 416},
		{fmt.Errorf("x: %w", store.ErrUnrecoverable), 503},
		{fmt.Errorf("x: %w", meta.ErrClosed), 503},
		{fmt.Errorf("plain failure"), 500},
	} {
		rec := httptest.NewRecorder()
		g.writeError(rec, c.err)
		if rec.Code != c.want {
			t.Fatalf("writeError(%v) = %d, want %d", c.err, rec.Code, c.want)
		}
		// Every 503 is transient from the client's seat: it must carry a
		// Retry-After hint; nothing else may.
		if got := rec.Header().Get("Retry-After"); (c.want == 503) != (got != "") {
			t.Fatalf("writeError(%v) = %d with Retry-After %q", c.err, rec.Code, got)
		}
	}
}

// TestWriteDegradedSheds kills nodes below the stripe width and checks
// writes answer 503 + Retry-After while reads keep serving — then that
// revival reopens writes.
func TestWriteDegradedSheds(t *testing.T) {
	s, err := store.New(store.Config{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, srv := newTestGateway(t, Config{Store: s})
	obj := testBytes(7, 400)
	resp, body := do(t, "PUT", srv.URL+"/t/acme/k", obj)
	wantStatus(t, resp, body, 200)

	// 20 nodes, LRC needs 16 live: kill 5.
	for i := 0; i < 5; i++ {
		s.KillNode(i)
	}
	resp, body = do(t, "PUT", srv.URL+"/t/acme/k2", obj)
	wantStatus(t, resp, body, 503)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded write 503 without Retry-After")
	}
	// Multipart writes shed too.
	resp, body = do(t, "POST", srv.URL+"/t/acme/k3?uploads", nil)
	wantStatus(t, resp, body, 200) // beginning an upload is metadata-only
	var begin struct {
		UploadID string `json:"uploadId"`
	}
	if err := json.Unmarshal(body, &begin); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "PUT", srv.URL+"/t/acme/k3?uploadId="+begin.UploadID+"&partNumber=1", obj)
	wantStatus(t, resp, body, 503)

	// Reads keep serving (degraded) the whole time.
	resp, body = do(t, "GET", srv.URL+"/t/acme/k", nil)
	wantStatus(t, resp, body, 200)
	if !bytes.Equal(body, obj) {
		t.Fatal("degraded read returned wrong bytes")
	}

	// /healthz reports the readonly state without failing the probe.
	resp, body = do(t, "GET", srv.URL+"/healthz", nil)
	wantStatus(t, resp, body, 200)
	var rep struct {
		Status    string `json:"status"`
		LiveNodes int    `json:"live_nodes"`
		Nodes     []struct {
			Node  int  `json:"node"`
			Alive bool `json:"alive"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "degraded-readonly" || rep.LiveNodes != 15 || len(rep.Nodes) != 20 {
		t.Fatalf("healthz = %+v", rep)
	}
	if rep.Nodes[0].Alive || !rep.Nodes[19].Alive {
		t.Fatalf("healthz liveness wrong: %+v", rep.Nodes)
	}

	// Revival reopens writes.
	for i := 0; i < 5; i++ {
		s.ReviveNode(i)
	}
	resp, body = do(t, "PUT", srv.URL+"/t/acme/k2", obj)
	wantStatus(t, resp, body, 200)
}

// TestHealthzMembershipKeys pins the bytes of /healthz's membership
// block through a drain and a join: epoch and active always, every other
// count only when it is non-zero.
func TestHealthzMembershipKeys(t *testing.T) {
	s, err := store.New(store.Config{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, srv := newTestGateway(t, Config{Store: s})
	membership := func(want string) {
		t.Helper()
		resp, body := do(t, "GET", srv.URL+"/healthz", nil)
		wantStatus(t, resp, body, 200)
		var rep struct {
			Membership json.RawMessage `json:"membership"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, rep.Membership); err != nil || got.String() != want {
			t.Fatalf("membership = %s (%v), want %s", got.String(), err, want)
		}
	}
	membership(`{"epoch":0,"active":20}`)

	if err := s.Put("o", testBytes(8, 256*10)); err != nil { // one stripe
		t.Fatal(err)
	}
	victim, _, err := s.BlockLocation("o", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	membership(`{"epoch":1,"active":19,"draining":1,"draining_blocks":1}`)

	rm := store.NewRepairManager(s, 1)
	rm.Start()
	defer rm.Stop()
	rb := store.NewRebalancer(s, rm, 0)
	rb.RebalanceOnce()
	rm.Drain()
	rb.RebalanceOnce()
	if _, err := s.AddNode(""); err != nil {
		t.Fatal(err)
	}
	membership(`{"epoch":3,"active":19,"joining":1,"dead":1,"rebalanced_blocks":1,"rebalanced_bytes":256}`)
}

func TestTenantIsolation(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	obj := testBytes(5, 500)
	resp, body := do(t, "PUT", srv.URL+"/t/acme/secret", obj)
	wantStatus(t, resp, body, 200)

	// Another tenant cannot read or even see the key.
	resp, body = do(t, "GET", srv.URL+"/t/rival/secret", nil)
	wantStatus(t, resp, body, 404)
	resp, body = do(t, "GET", srv.URL+"/t/rival", nil)
	wantStatus(t, resp, body, 200)
	var list ListResult
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Objects) != 0 {
		t.Fatalf("rival tenant sees %d objects", len(list.Objects))
	}
	// A tenant name that is a prefix of another must not leak either.
	resp, body = do(t, "GET", srv.URL+"/t/ac", nil)
	wantStatus(t, resp, body, 200)
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Objects) != 0 {
		t.Fatalf("prefix tenant sees %d objects", len(list.Objects))
	}
}

func TestBearerAuth(t *testing.T) {
	_, srv := newTestGateway(t, Config{Tokens: map[string]string{"locked": "s3cr3t"}})
	obj := testBytes(6, 100)

	resp, body := do(t, "PUT", srv.URL+"/t/locked/x", obj)
	wantStatus(t, resp, body, 401)
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate")
	}
	resp, body = do(t, "PUT", srv.URL+"/t/locked/x", obj, "Authorization", "Bearer wrong")
	wantStatus(t, resp, body, 401)
	// A prefix of the token and an empty token are refused like a wrong one.
	for _, hdr := range []string{"Bearer s3cr3", "Bearer "} {
		resp, body = do(t, "PUT", srv.URL+"/t/locked/x", obj, "Authorization", hdr)
		wantStatus(t, resp, body, 401)
	}
	resp, body = do(t, "PUT", srv.URL+"/t/locked/x", obj, "Authorization", "Bearer s3cr3t")
	wantStatus(t, resp, body, 200)
	resp, body = do(t, "GET", srv.URL+"/t/locked/x", nil, "Authorization", "Bearer s3cr3t")
	wantStatus(t, resp, body, 200)
	if !bytes.Equal(body, obj) {
		t.Fatal("authorized GET returned wrong bytes")
	}
	// Tenants without a configured token stay open.
	resp, body = do(t, "PUT", srv.URL+"/t/open/x", obj)
	wantStatus(t, resp, body, 200)
}

func TestAdmission429(t *testing.T) {
	g, srv := newTestGateway(t, Config{BytesPerSec: 1000})
	// The first put is admitted (the bucket charges into debt); while in
	// debt, the next request is refused with a Retry-After hint.
	obj := testBytes(7, 50_000)
	resp, body := do(t, "PUT", srv.URL+"/t/acme/big", obj)
	wantStatus(t, resp, body, 200)

	resp, body = do(t, "GET", srv.URL+"/t/acme/big", nil)
	wantStatus(t, resp, body, 429)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := g.Metrics().AdmissionRejected; got < 1 {
		t.Fatalf("AdmissionRejected = %d, want >= 1", got)
	}
	// Budgets are per tenant: another tenant is unaffected.
	resp, body = do(t, "PUT", srv.URL+"/t/other/small", testBytes(8, 10))
	wantStatus(t, resp, body, 200)
}

func TestInflightCap(t *testing.T) {
	_, srv := newTestGateway(t, Config{MaxInflight: 1})
	// Park one PUT mid-body so it holds the tenant's only slot. Cleanups
	// run last-registered first, so this one ends the body before
	// srv.Close waits on the handler reading it, even when the test
	// fails before its own Close.
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("PUT", srv.URL+"/t/acme/slow", pr)
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	if _, err := pw.Write(testBytes(9, 10)); err != nil {
		t.Fatal(err)
	}
	// The slot is taken once the handler is reading the body; poll until
	// a second request bounces.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := do(t, "GET", srv.URL+"/t/acme/whatever", nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never saw 429 while a PUT was in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	pw.Close()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked PUT never completed after its body ended")
	}
	// Slot released: the tenant serves again.
	resp, body := do(t, "GET", srv.URL+"/t/acme/slow", nil)
	wantStatus(t, resp, body, 200)
}

// TestMultipartResumeAcrossReopen drives the full upload lifecycle with
// a store teardown in the middle: parts put before the reopen are listed
// and used by a complete issued after it, through a brand-new gateway.
func TestMultipartResumeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		be, err := store.NewDirBackend(filepath.Join(dir, "blocks"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.New(store.Config{Backend: be, BlockSize: 256, MetaDir: filepath.Join(dir, "meta")})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	g, err := New(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)

	resp, body := do(t, "POST", srv.URL+"/t/acme/movie.bin?uploads", nil)
	wantStatus(t, resp, body, 200)
	var begin struct {
		UploadID string `json:"uploadId"`
	}
	if err := json.Unmarshal(body, &begin); err != nil {
		t.Fatal(err)
	}
	id := begin.UploadID

	p1 := testBytes(10, 6000)
	p2 := testBytes(11, 137)
	resp, body = do(t, "PUT", srv.URL+"/t/acme/movie.bin?uploadId="+id+"&partNumber=1", p1)
	wantStatus(t, resp, body, 200)
	resp, body = do(t, "PUT", srv.URL+"/t/acme/movie.bin?uploadId="+id+"&partNumber=2", p2)
	wantStatus(t, resp, body, 200)

	// Tear the serving stack down and rebuild it over the same disk.
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	g, err = New(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv = httptest.NewServer(g)
	defer srv.Close()

	resp, body = do(t, "GET", srv.URL+"/t/acme/movie.bin?uploadId="+id, nil)
	wantStatus(t, resp, body, 200)
	var parts struct {
		Parts []partStat `json:"parts"`
	}
	if err := json.Unmarshal(body, &parts); err != nil {
		t.Fatal(err)
	}
	if len(parts.Parts) != 2 || parts.Parts[0].Size != 6000 || parts.Parts[1].Size != 137 {
		t.Fatalf("parts after reopen = %+v", parts.Parts)
	}

	p3 := testBytes(12, 2560)
	resp, body = do(t, "PUT", srv.URL+"/t/acme/movie.bin?uploadId="+id+"&partNumber=3", p3)
	wantStatus(t, resp, body, 200)
	resp, body = do(t, "POST", srv.URL+"/t/acme/movie.bin?uploadId="+id, nil)
	wantStatus(t, resp, body, 200)

	want := append(append(append([]byte(nil), p1...), p2...), p3...)
	resp, body = do(t, "GET", srv.URL+"/t/acme/movie.bin", nil)
	wantStatus(t, resp, body, 200)
	if !bytes.Equal(body, want) {
		t.Fatal("assembled object differs from its parts")
	}

	// Complete retired the upload: the id is gone and no part objects
	// linger in the reserved namespace.
	resp, body = do(t, "GET", srv.URL+"/t/acme/movie.bin?uploadId="+id, nil)
	wantStatus(t, resp, body, 404)
	if leftover := s.ObjectsWithPrefix(".mpu/"); len(leftover) != 0 {
		t.Fatalf("%d part objects left after complete", len(leftover))
	}
	// And the final object does not leak into listings as parts did not.
	resp, body = do(t, "GET", srv.URL+"/t/acme", nil)
	wantStatus(t, resp, body, 200)
	var list ListResult
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Objects) != 1 || list.Objects[0].Key != "movie.bin" {
		t.Fatalf("listing after complete = %+v", list.Objects)
	}
}

func TestMultipartErrors(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	resp, body := do(t, "POST", srv.URL+"/t/acme/obj?uploads", nil)
	wantStatus(t, resp, body, 200)
	var begin struct {
		UploadID string `json:"uploadId"`
	}
	if err := json.Unmarshal(body, &begin); err != nil {
		t.Fatal(err)
	}
	id := begin.UploadID

	for _, pn := range []string{"0", "10001", "abc", ""} {
		resp, body := do(t, "PUT", srv.URL+"/t/acme/obj?uploadId="+id+"&partNumber="+pn, []byte("x"))
		wantStatus(t, resp, body, 400)
		wantNotBadName(t, body)
	}
	// Unknown id, and a known id used by the wrong tenant or key, all 404.
	resp, body = do(t, "PUT", srv.URL+"/t/acme/obj?uploadId=deadbeef&partNumber=1", []byte("x"))
	wantStatus(t, resp, body, 404)
	resp, body = do(t, "PUT", srv.URL+"/t/rival/obj?uploadId="+id+"&partNumber=1", []byte("x"))
	wantStatus(t, resp, body, 404)
	resp, body = do(t, "PUT", srv.URL+"/t/acme/other?uploadId="+id+"&partNumber=1", []byte("x"))
	wantStatus(t, resp, body, 404)

	// Completing an upload with no parts is a client error.
	resp, body = do(t, "POST", srv.URL+"/t/acme/obj?uploadId="+id, nil)
	wantStatus(t, resp, body, 400)
	wantNotBadName(t, body)

	// Abort, then the id is gone.
	resp, body = do(t, "PUT", srv.URL+"/t/acme/obj?uploadId="+id+"&partNumber=1", []byte("x"))
	wantStatus(t, resp, body, 200)
	resp, body = do(t, "DELETE", srv.URL+"/t/acme/obj?uploadId="+id, nil)
	wantStatus(t, resp, body, 204)
	resp, body = do(t, "GET", srv.URL+"/t/acme/obj?uploadId="+id, nil)
	wantStatus(t, resp, body, 404)
}

// TestBeginUploadRandFailure: when the id source fails, begin-upload
// answers 5xx and commits no upload record, not even under the id the
// short read had filled in; the next begin, with the source back, works.
func TestBeginUploadRandFailure(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	t.Cleanup(func() { randRead = crand.Read })
	randRead = func(b []byte) (int, error) {
		for i := range b {
			b[i] = 0xab
		}
		return len(b) / 2, errors.New("entropy source failed")
	}
	resp, body := do(t, "POST", srv.URL+"/t/acme/obj?uploads", nil)
	if resp.StatusCode < 500 {
		t.Fatalf("begin with a failing id source: %d %s, want 5xx", resp.StatusCode, body)
	}
	if _, ok := g.st.GetUploadRecord(strings.Repeat("ab", 16)); ok {
		t.Fatal("a failed begin left an upload record")
	}
	randRead = crand.Read
	resp, body = do(t, "POST", srv.URL+"/t/acme/obj?uploads", nil)
	wantStatus(t, resp, body, 200)
}

// wantNotBadName fails when a 400 body blames the object name: the
// multipart errors are about the request, and the name is valid.
func wantNotBadName(t *testing.T, body []byte) {
	t.Helper()
	if strings.Contains(string(body), "invalid object name") {
		t.Fatalf("400 body blames a valid name: %q", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	obj := testBytes(13, 3000)
	do(t, "PUT", srv.URL+"/t/acme/m", obj)
	do(t, "GET", srv.URL+"/t/acme/m", nil)
	do(t, "GET", srv.URL+"/t/acme/missing", nil)

	resp, body := do(t, "GET", srv.URL+"/metrics", nil)
	wantStatus(t, resp, body, 200)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Verbs["PUT"].Requests != 1 || snap.Verbs["GET"].Requests != 2 {
		t.Fatalf("verb counts = %+v", snap.Verbs)
	}
	if snap.BytesIn != 3000 || snap.BytesOut != 3000 {
		t.Fatalf("bytes in/out = %d/%d, want 3000/3000", snap.BytesIn, snap.BytesOut)
	}
	if snap.Verbs["GET"].P99Ms < snap.Verbs["GET"].P50Ms {
		t.Fatalf("p99 %v < p50 %v", snap.Verbs["GET"].P99Ms, snap.Verbs["GET"].P50Ms)
	}
	if snap.Store.PutBlocks == 0 {
		t.Fatal("store metrics missing from snapshot")
	}
}

// TestRangeSuffixZeroIs416: RFC 7233 says a suffix range of zero bytes
// ("bytes=-0") is satisfiable by nothing — the right answer is 416 with
// a bytes */size hint, never an empty 206. Regression for a bug where
// the zero suffix fell through to the clamped-empty-window path.
func TestRangeSuffixZeroIs416(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	obj := testBytes(21, 1000)
	url := srv.URL + "/t/acme/suffix"
	resp, body := do(t, "PUT", url, obj)
	wantStatus(t, resp, body, 200)

	resp, body = do(t, "GET", url, nil, "Range", "bytes=-0")
	wantStatus(t, resp, body, 416)
	if len(body) != 0 && resp.Header.Get("Content-Type") == "application/octet-stream" {
		t.Fatalf("bytes=-0 served %d object bytes with a 416", len(body))
	}
	if got := resp.Header.Get("Content-Range"); got != fmt.Sprintf("bytes */%d", len(obj)) {
		t.Fatalf("bytes=-0 Content-Range = %q, want \"bytes */%d\"", got, len(obj))
	}

	// Same story against a zero-length object: no suffix of it exists.
	urlEmpty := srv.URL + "/t/acme/empty"
	resp, body = do(t, "PUT", urlEmpty, []byte{})
	wantStatus(t, resp, body, 200)
	resp, body = do(t, "GET", urlEmpty, nil, "Range", "bytes=-0")
	wantStatus(t, resp, body, 416)
	resp, body = do(t, "GET", urlEmpty, nil, "Range", "bytes=-5")
	wantStatus(t, resp, body, 416)
}

// TestRejectRetryAfterFloor: the 429 Retry-After hint is whole seconds
// rounded up and floored at 1 — a sub-second (or zero) wait must never
// produce "Retry-After: 0", which some clients treat as "retry now" and
// turn into a tight loop against an already-saturated tenant budget.
func TestRejectRetryAfterFloor(t *testing.T) {
	g, _ := newTestGateway(t, Config{})
	for _, c := range []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{time.Nanosecond, "1"},
		{time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{time.Second + time.Nanosecond, "2"},
		{1500 * time.Millisecond, "2"},
		{2500 * time.Millisecond, "3"},
	} {
		rec := httptest.NewRecorder()
		g.reject(rec, c.wait)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("reject(%v) = %d, want 429", c.wait, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Fatalf("reject(%v) Retry-After = %q, want %q", c.wait, got, c.want)
		}
	}
}

// TestMetricsCacheHitRate: with a caching store behind the gateway,
// repeat GETs of the same object earn cache hits and /metrics surfaces
// the hit rate alongside the raw store counters.
func TestMetricsCacheHitRate(t *testing.T) {
	s, err := store.New(store.Config{BlockSize: 256, CacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, srv := newTestGateway(t, Config{Store: s})

	obj := testBytes(22, 3*2560+17)
	url := srv.URL + "/t/acme/hot"
	resp, body := do(t, "PUT", url, obj)
	wantStatus(t, resp, body, 200)
	resp, body = do(t, "GET", url, nil) // warm the cache
	wantStatus(t, resp, body, 200)
	for i := 0; i < 3; i++ {
		resp, body = do(t, "GET", url, nil, "Range", "bytes=100-699")
		wantStatus(t, resp, body, 206)
		if !bytes.Equal(body, obj[100:700]) {
			t.Fatal("ranged GET returned wrong bytes")
		}
	}

	resp, body = do(t, "GET", srv.URL+"/metrics", nil)
	wantStatus(t, resp, body, 200)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Store.CacheHits == 0 {
		t.Fatal("repeat GETs of a warm object earned no cache hits")
	}
	if snap.CacheHitRate <= 0 || snap.CacheHitRate > 1 {
		t.Fatalf("cache_hit_rate = %v, want in (0, 1]", snap.CacheHitRate)
	}
}

// TestMetricsQuantileRounding pins /metrics' p50/p99 to what the
// per-verb histogram reported before it moved to stats.LatencyHist:
// every want below is the old verbStats.quantile output for the same
// observations (one-based rank round(q·n), bucket edge in ms).
func TestMetricsQuantileRounding(t *testing.T) {
	us, ms := time.Microsecond, time.Millisecond
	rep := func(n int, fast time.Duration, slow ...time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = fast
		}
		return append(out, slow...)
	}
	for _, c := range []struct {
		name     string
		obs      []time.Duration
		p50, p99 float64
	}{
		{"one 3ms request", []time.Duration{3 * ms}, 4.096, 4.096},
		{"p50 of two is the faster", []time.Duration{10 * us, 900 * us}, 0.016, 1.024},
		{"three", []time.Duration{10 * us, 900 * us, 70 * ms}, 1.024, 131.072},
		{"p99 of ten is the slowest", rep(9, 100*us, 50*ms), 0.128, 65.536},
		{"p99 of a hundred is the 99th", rep(99, 100*us, 50*ms), 0.128, 0.128},
		{"two slow in a hundred show", rep(98, 100*us, 50*ms, 50*ms), 0.128, 65.536},
		{"59.4 rounds down to the 59th", rep(59, 100*us, 50*ms), 0.128, 0.128},
		{"zero latency", []time.Duration{0}, 0.001, 0.001},
		{"exact power of two", []time.Duration{1024 * us}, 2.048, 2.048},
	} {
		var h stats.LatencyHist
		for _, d := range c.obs {
			h.Observe(d)
		}
		n := h.Count()
		if p50, p99 := quantileMs(&h, n, 0.50), quantileMs(&h, n, 0.99); p50 != c.p50 || p99 != c.p99 {
			t.Fatalf("%s: p50 %v p99 %v ms, want %v %v", c.name, p50, p99, c.p50, c.p99)
		}
	}
}
