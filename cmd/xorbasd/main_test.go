package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"repro/internal/cliutil"
)

// The daemon's shutdown and crash tests re-exec the test binary as a real
// xorbasd process (TestMain routes on the env marker), so the paths under
// test are the production ones: signal.NotifyContext, the drain gate,
// srv.Shutdown and the final checkpoint for SIGTERM; nothing at all for
// SIGKILL. The child gets -dir and no -meta: the plane at <dir>/meta is
// what makes its acks durable.

const (
	sigtermChildDirEnv  = "XORBASD_SIGTERM_CHILD_DIR"
	sigtermChildAddrEnv = "XORBASD_SIGTERM_CHILD_ADDR"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(sigtermChildDirEnv); dir != "" {
		err := run([]string{
			"-dir", dir,
			"-listen", os.Getenv(sigtermChildAddrEnv),
			"-nodes", "20", "-racks", "8", "-block", "4096",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "xorbasd child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// drippingReader hands out its payload in small timed sips, holding an
// upload in flight long enough for the parent to shut the server down
// around it. started closes on the first Read, signalling the request
// reached the server.
type drippingReader struct {
	data    []byte
	off     int
	chunk   int
	delay   time.Duration
	started chan struct{}
	once    bool
}

func (d *drippingReader) Read(p []byte) (int, error) {
	if !d.once {
		d.once = true
		close(d.started)
	}
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	time.Sleep(d.delay)
	n := d.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(d.data)-d.off {
		n = len(d.data) - d.off
	}
	copy(p, d.data[d.off:d.off+n])
	d.off += n
	return n, nil
}

func testPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + n)
	}
	return b
}

// TestGracefulSigterm: SIGTERM must drain the in-flight upload to a
// successful completion, answer new requests 503 with a Retry-After
// hint, exit 0, and leave a store that reopens with every acked byte.
func TestGracefulSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	var childLog bytes.Buffer
	cmd, addr := startChild(t, dir, &childLog)
	base := "http://" + addr

	// A fully acked object before the signal: it must survive.
	warm := testPayload(8192)
	putObject(t, base+"/t/acme/warm.bin", bytes.NewReader(warm))

	// An upload still dripping when SIGTERM lands: the drain must let it
	// finish. ~4s of body at 100ms per sip.
	slow := testPayload(10240)
	dr := &drippingReader{data: slow, chunk: 256, delay: 100 * time.Millisecond, started: make(chan struct{})}
	slowDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPut, base+"/t/acme/slow.bin", dr)
		if err != nil {
			slowDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			slowDone <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			slowDone <- fmt.Errorf("slow put: status %d", resp.StatusCode)
			return
		}
		slowDone <- nil
	}()
	<-dr.started
	// started fires when the transport begins sending, not when the
	// handler is dispatched; give the server a beat to pass the drain
	// gate before the flag flips, or the upload races the 503. The body
	// still has seconds of dripping left.
	time.Sleep(500 * time.Millisecond)

	// Stage the drain-gate probe before the signal: a connection with a
	// partially sent request is active, so Shutdown neither kills it nor
	// finishes before it's answered. The final CRLF goes out only after
	// shutdown provably started.
	probe, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if _, err := io.WriteString(probe, "GET /healthz HTTP/1.1\r\nHost: xorbasd\r\n"); err != nil {
		t.Fatal(err)
	}
	// Let the accept loop pick the probe up: a socket still in the
	// kernel's accept queue when Shutdown closes the listener is reset,
	// not served.
	time.Sleep(250 * time.Millisecond)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Listeners close at the head of srv.Shutdown, after the drain flag
	// flips — a refused fresh dial proves the gate is up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatalf("listener still accepting 10s after SIGTERM\nchild log:\n%s", childLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	if _, err := io.WriteString(probe, "\r\n"); err != nil {
		t.Fatalf("completing probe request: %v", err)
	}
	probe.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(probe), nil)
	if err != nil {
		t.Fatalf("reading probe response: %v\nchild log:\n%s", err, childLog.String())
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain gate answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain has no Retry-After hint")
	}

	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight upload was not drained: %v\nchild log:\n%s", err, childLog.String())
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("child exited dirty: %v\nchild log:\n%s", err, childLog.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("child did not exit within 30s of SIGTERM\nchild log:\n%s", childLog.String())
	}

	// The checkpointed store reopens with both objects byte-exact.
	fs := flag.NewFlagSet("reopen", flag.ContinueOnError)
	sf := cliutil.RegisterStoreFlags(fs)
	if err := fs.Parse([]string{"-dir", dir}); err != nil {
		t.Fatal(err)
	}
	s, err := sf.Open(cliutil.Rates{})
	if err != nil {
		t.Fatalf("reopening store after shutdown: %v", err)
	}
	defer s.Close()
	for name, want := range map[string][]byte{"acme/warm.bin": warm, "acme/slow.bin": slow} {
		got, _, err := s.Get(name)
		if err != nil {
			t.Fatalf("get %s after restart: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted across shutdown", name)
		}
	}
}

// TestSigkillKeepsAckedPut: a daemon started with -dir alone acks a PUT,
// is SIGKILLed — no drain, no checkpoint, no Close — and a second daemon
// over the same directory serves the object byte-exact: the ack was on
// the default plane's WAL, not in process memory.
func TestSigkillKeepsAckedPut(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	var childLog bytes.Buffer
	cmd, addr := startChild(t, dir, &childLog)
	want := testPayload(3*10*4096 + 77)
	putObject(t, "http://"+addr+"/t/acme/acked.bin", bytes.NewReader(want))
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, addr = startChild(t, dir, &childLog)
	resp, err := http.Get("http://" + addr + "/t/acme/acked.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after SIGKILL + restart: status %d, err %v\nchild log:\n%s", resp.StatusCode, err, childLog.String())
	}
	if !bytes.Equal(got, want) {
		t.Fatal("acked object corrupted across SIGKILL")
	}
}

// startChild re-execs the test binary as an xorbasd over dir on a free
// loopback port and waits until it serves.
func startChild(t *testing.T, dir string, childLog *bytes.Buffer) (*exec.Cmd, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		sigtermChildDirEnv+"="+dir,
		sigtermChildAddrEnv+"="+addr,
	)
	cmd.Stderr = childLog
	cmd.Stdout = childLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait() // an error here only means the test already reaped it
	})
	waitUp(t, "http://"+addr, childLog)
	return cmd, addr
}

func waitUp(t *testing.T, base string, childLog *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("child never came up\nchild log:\n%s", childLog.String())
}

func putObject(t *testing.T, url string, body io.Reader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("PUT %s: status %d", url, resp.StatusCode)
	}
}
