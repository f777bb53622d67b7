package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pattern"
)

// captureStdout runs fn and returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	os.Stdout = saved
	w.Close()
	return <-out, err
}

// TestFileModeRoundTrip drives encode → lose shards → repair → verify →
// decode on flat shard files for both codes. verify, repair and decode
// are told nothing but the directory: the code comes from the
// <name>.stripe.json encode wrote.
func TestFileModeRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name       string
		rs         bool
		shards     int
		oneLoss    string // repair's report after losing shard 3
		threeLoss  string // … after losing shards 0, 1 and a parity
		parityLost int
	}{
		{"LRC", false, 16, "1 via light decoder (5 reads each), 0 via heavy", "1 via light decoder (5 reads each), 2 via heavy", 15},
		{"RS", true, 14, "0 via light decoder (5 reads each), 1 via heavy", "0 via light decoder (5 reads each), 3 via heavy", 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			in, dir, out := filepath.Join(root, "file.bin"), filepath.Join(root, "shards"), filepath.Join(root, "out.bin")
			want, err := io.ReadAll(pattern.NewReader(100003))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(in, want, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := encode(in, dir, c.rs); err != nil {
				t.Fatal(err)
			}
			if m, stripe, err := loadStripe(dir, "file.bin"); err != nil || m.RS != c.rs || len(stripe) != c.shards {
				t.Fatalf("stripe.json %+v with %d shards (err %v), want rs=%v and %d shards", m, len(stripe), err, c.rs, c.shards)
			}
			if err := verify(dir, "file.bin"); err != nil {
				t.Fatalf("verify of a fresh stripe: %v", err)
			}

			lose := func(shards ...int) map[int][]byte {
				orig := map[int][]byte{}
				for _, i := range shards {
					b, err := os.ReadFile(shardPath(dir, "file.bin", i))
					if err != nil {
						t.Fatal(err)
					}
					orig[i] = b
					if err := os.Remove(shardPath(dir, "file.bin", i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := verify(dir, "file.bin"); err == nil {
					t.Fatalf("verify passed with shards %v missing", shards)
				}
				return orig
			}
			repairAndCompare := func(orig map[int][]byte, report string) {
				got, err := captureStdout(t, func() error { return repair(dir, "file.bin") })
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(got, report) {
					t.Fatalf("repair reported %q, want it to contain %q", got, report)
				}
				for i, b := range orig {
					if back, err := os.ReadFile(shardPath(dir, "file.bin", i)); err != nil || !bytes.Equal(back, b) {
						t.Fatalf("shard %d after repair: err %v, byte-exact %v", i, err, bytes.Equal(back, b))
					}
				}
				if err := verify(dir, "file.bin"); err != nil {
					t.Fatalf("verify after repair: %v", err)
				}
			}
			repairAndCompare(lose(3), c.oneLoss)
			repairAndCompare(lose(0, 1, c.parityLost), c.threeLoss)

			// decode rebuilds what is missing on its own, too.
			lose(2, 9)
			if err := decode(dir, "file.bin", out); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("decoded file: err %v, byte-exact %v", err, bytes.Equal(got, want))
			}
			if err := repair(dir, "file.bin"); err != nil {
				t.Fatal(err)
			}

			// A flipped byte in any one shard fails verify.
			p := shardPath(dir, "file.bin", 6)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b[100] ^= 0x01
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := verify(dir, "file.bin"); err == nil {
				t.Fatal("verify passed with a corrupted shard")
			}
		})
	}
}
