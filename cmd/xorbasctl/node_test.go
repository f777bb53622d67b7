package main

import (
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/netblock"
	"repro/internal/store"
)

// flakyProxy listens on loopback, drops the first connection it accepts
// and forwards every later one to target.
func flakyProxy(t *testing.T, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for first := true; ; first = false {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				c.Close()
				continue
			}
			go func() {
				defer c.Close()
				s, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer s.Close()
				go func() {
					io.Copy(s, c)
					s.Close()
				}()
				io.Copy(c, s)
			}()
		}
	}()
	return ln.Addr().String()
}

// A node whose first probe fails and whose second answers is up: the
// table must print what the exit code counts, not the error window that
// still holds the failed probe.
func TestNodePingStatusMatchesExitCode(t *testing.T) {
	srv, addr, err := netblock.StartLocal(store.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	proxy := flakyProxy(t, addr)

	got, err := captureStdout(t, func() error {
		return nodePing([]string{"-nodes", proxy, "-probes", "3"})
	})
	if err != nil {
		t.Fatalf("node ping: %v\n%s", err, got)
	}
	if strings.Contains(got, "errRate=0.00") {
		t.Fatalf("the first probe did not fail, so the test proves nothing:\n%s", got)
	}
	if f := strings.Fields(got); len(f) < 4 || f[3] != "up" {
		t.Fatalf("node ping exited 0 but printed:\n%s", got)
	}
}
