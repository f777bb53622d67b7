package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// The gateway's kill -9 test: a child process serves a MetaDir-backed
// store over HTTP, begins a multipart upload, and streams parts into it
// — fsyncing an ack line after each acked PUT. The parent SIGKILLs it
// mid-upload, rebuilds the serving stack over the same directories, and
// finishes the upload a client would: list the surviving parts, upload
// the next one, complete, read back. Every acked part must be in the
// listing and the assembled object must be byte-exact.

const gwCrashChildEnv = "GATEWAY_CRASH_CHILD_DIR"

// gwPartBytes derives part content from its number so parent and child
// agree with no channel between them: ~1.7 stripes at BlockSize 256.
func gwPartBytes(n int) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "part-%d", n)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	b := make([]byte, 256*10+1700+n)
	rng.Read(b)
	return b
}

func gwCrashOpen(t *testing.T, dir string) *store.Store {
	t.Helper()
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

// TestGatewayCrashChild is the subprocess body: without the env marker
// it skips. With it, it begins an upload and PUTs parts forever, acking
// each one durably, until the parent kills it.
func TestGatewayCrashChild(t *testing.T) {
	dir := os.Getenv(gwCrashChildEnv)
	if dir == "" {
		t.Skip("helper for TestKillNineMidMultipartResumes")
	}
	s := gwCrashOpen(t, dir)
	g, err := New(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)

	resp, err := http.Post(srv.URL+"/t/acme/big.bin?uploads", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var begin struct {
		UploadID string `json:"uploadId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&begin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	acked, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// First line is the uploadId; the begin record is durable before the
	// gateway acked it, so the parent may rely on it.
	fmt.Fprintln(acked, begin.UploadID)
	if err := acked.Sync(); err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ {
		url := fmt.Sprintf("%s/t/acme/big.bin?uploadId=%s&partNumber=%d", srv.URL, begin.UploadID, n)
		req, _ := http.NewRequest("PUT", url, bytes.NewReader(gwPartBytes(n)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("part %d: status %d", n, resp.StatusCode)
		}
		fmt.Fprintln(acked, n)
		if err := acked.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestKillNineMidMultipartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	ackPath := filepath.Join(dir, "acked")

	cmd := exec.Command(os.Args[0], "-test.run", "^TestGatewayCrashChild$")
	cmd.Env = append(os.Environ(), gwCrashChildEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the uploadId plus at least two acked parts, then kill at
	// whatever point of the part loop the child happens to be in.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(ackPath); err == nil && bytes.Count(b, []byte("\n")) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("child acked fewer than 2 parts in 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	ackBytes, err := os.ReadFile(ackPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(ackBytes))
	id, ackedParts := lines[0], lines[1:]

	// Rebuild the whole serving stack over the wreckage.
	s := gwCrashOpen(t, dir)
	defer s.Close()
	g, err := New(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	resp, body := do(t, "GET", srv.URL+"/t/acme/big.bin?uploadId="+id, nil)
	wantStatus(t, resp, body, 200)
	var listing struct {
		Parts []partStat `json:"parts"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	have := map[int]int{}
	for _, p := range listing.Parts {
		have[p.Number] = p.Size
	}
	// Promise 1: every acked part survived, at its full size. (The store
	// may also hold one unacked part whose commit beat the kill — fine,
	// its content is deterministic too.)
	for _, a := range ackedParts {
		var n int
		fmt.Sscanf(a, "%d", &n)
		if have[n] != len(gwPartBytes(n)) {
			t.Fatalf("acked part %d: listed size %d, want %d", n, have[n], len(gwPartBytes(n)))
		}
	}
	if len(listing.Parts) < len(ackedParts) || len(listing.Parts) > len(ackedParts)+1 {
		t.Fatalf("%d parts survived with %d acked (at most one in-flight part may surface)",
			len(listing.Parts), len(ackedParts))
	}

	// Promise 2: the upload is still writable — add the next part and
	// complete it, like a resuming client.
	next := listing.Parts[len(listing.Parts)-1].Number + 1
	resp, body = do(t, "PUT",
		fmt.Sprintf("%s/t/acme/big.bin?uploadId=%s&partNumber=%d", srv.URL, id, next), gwPartBytes(next))
	wantStatus(t, resp, body, 200)
	resp, body = do(t, "POST", srv.URL+"/t/acme/big.bin?uploadId="+id, nil)
	wantStatus(t, resp, body, 200)

	var want []byte
	for n := 1; n <= next; n++ {
		want = append(want, gwPartBytes(n)...)
	}
	resp, body = do(t, "GET", srv.URL+"/t/acme/big.bin", nil)
	wantStatus(t, resp, body, 200)
	if !bytes.Equal(body, want) {
		t.Fatalf("assembled object is not byte-exact after the crash (%d bytes, want %d)",
			len(body), len(want))
	}
}

// TestRetriedCompleteKeepsObject cuts a completed multipart upload's WAL
// at every record boundary from just before the complete — each cut a
// crash somewhere in complete's commit and retire — and, over a copy of
// the store reopened at each cut, retries the complete the way a client
// that never saw the ack would. The retry reassembles the same three
// parts (nothing retired yet) or answers 404 (the record is gone); the
// object is whole either way, and an abort of the uploadId then sweeps
// whatever parts the crash left behind.
func TestRetriedCompleteKeepsObject(t *testing.T) {
	dir := t.TempDir()
	s := gwCrashOpen(t, dir)
	defer s.Close()
	g, err := New(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()
	resp, body := do(t, "POST", srv.URL+"/t/acme/obj?uploads", nil)
	wantStatus(t, resp, body, 200)
	var begin struct {
		UploadID string `json:"uploadId"`
	}
	if err := json.Unmarshal(body, &begin); err != nil {
		t.Fatal(err)
	}
	id := begin.UploadID
	var want []byte
	for n := 1; n <= 3; n++ {
		p := testBytes(int64(20+n), 5000)
		want = append(want, p...)
		resp, body = do(t, "PUT", fmt.Sprintf("%s/t/acme/obj?uploadId=%s&partNumber=%d", srv.URL, id, n), p)
		wantStatus(t, resp, body, 200)
	}
	walPath := filepath.Join(dir, "meta", "wal.log") // the metadata plane's one WAL segment
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "POST", srv.URL+"/t/acme/obj?uploadId="+id, nil)
	wantStatus(t, resp, body, 200)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Record framing: uint32 LE payload length | uint32 CRC | payload.
	cuts := []int{int(fi.Size())}
	for off := cuts[0]; off+8 <= len(wal); {
		off += 8 + int(binary.LittleEndian.Uint32(wal[off:]))
		cuts = append(cuts, off)
	}
	if cuts[len(cuts)-1] != len(wal) || len(cuts) < 3 {
		t.Fatalf("WAL tail does not split into records: cuts %v of %d bytes", cuts, len(wal))
	}

	swept := 0 // cuts whose abort found parts to sweep
	for _, cut := range cuts {
		crashed := filepath.Join(t.TempDir(), "crashed")
		copyTree(t, dir, crashed)
		if err := os.WriteFile(filepath.Join(crashed, "meta", "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := gwCrashOpen(t, crashed)
		g2, err := New(Config{Store: s2})
		if err != nil {
			t.Fatal(err)
		}
		srv2 := httptest.NewServer(g2)
		resp, body := do(t, "POST", srv2.URL+"/t/acme/obj?uploadId="+id, nil)
		switch resp.StatusCode {
		case 200:
			var done struct {
				Parts int `json:"parts"`
			}
			if err := json.Unmarshal(body, &done); err != nil || done.Parts != 3 {
				t.Errorf("cut at %d: retried complete acked %s, want all 3 parts", cut, body)
			}
		case 404:
		default:
			t.Errorf("cut at %d: retried complete answered %d (%s), want 200 or 404", cut, resp.StatusCode, body)
		}
		resp, body = do(t, "GET", srv2.URL+"/t/acme/obj", nil)
		if resp.StatusCode != 200 || !bytes.Equal(body, want) {
			t.Errorf("cut at %d: GET after the retried complete answered %d with %d bytes, want 200 with %d",
				cut, resp.StatusCode, len(body), len(want))
		}
		resp, body = do(t, "DELETE", srv2.URL+"/t/acme/obj?uploadId="+id, nil)
		if resp.StatusCode == 204 {
			swept++
		}
		if resp.StatusCode != 204 && resp.StatusCode != 404 {
			t.Errorf("cut at %d: abort answered %d (%s)", cut, resp.StatusCode, body)
		}
		if left := s2.ObjectsWithPrefix(".mpu/"); len(left) != 0 {
			t.Errorf("cut at %d: %d parts left after the abort", cut, len(left))
		}
		srv2.Close()
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if swept == 0 {
		t.Error("no cut left parts behind: the sweep went unexercised")
	}
}

// copyTree copies the regular files under src to the same paths under
// dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
