package cliutil

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/meta"
	"repro/internal/netblock"
	"repro/internal/store"
)

func parseFlags(t *testing.T, args ...string) *StoreFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sf := RegisterStoreFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + n)
	}
	return b
}

// TestReopenRecoversGeometryFromPlane: a store created from flags, put
// to, and abandoned without Close reopens from flags that carry nothing
// but -dir — codec, node count, racks and block size all come back from
// the plane, and the objects are byte-exact.
func TestReopenRecoversGeometryFromPlane(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	created := parseFlags(t, "-dir", dir, "-code", "rs", "-nodes", "17")
	s1, err := created.OpenOrCreate(5, 512, Rates{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(512*10*2 + 9) // 3 stripes at 512-byte blocks
	if err := s1.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	s1.KillNode(4)
	// No Close: the process state is simply dropped.

	for _, reopen := range []func(*StoreFlags) (*store.Store, error){
		func(f *StoreFlags) (*store.Store, error) { return f.Open(Rates{}) },
		// The flag defaults (-code lrc, -nodes 20) and the create-time
		// arguments must not leak into an existing store.
		func(f *StoreFlags) (*store.Store, error) { return f.OpenOrCreate(8, 64<<10, Rates{}) },
	} {
		s2, err := reopen(parseFlags(t, "-dir", dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.Codec().Name(); got != "RS(10,4)" {
			t.Fatalf("reopened with codec %s, want RS(10,4)", got)
		}
		if s2.Nodes() != 17 || s2.Racks() != 5 {
			t.Fatalf("reopened with %d nodes / %d racks, want 17 / 5", s2.Nodes(), s2.Racks())
		}
		if s2.Alive(4) {
			t.Fatal("reopen lost the death of node 4")
		}
		got, _, err := s2.Get("obj")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get after reopen: err %v", err)
		}
		if st, err := s2.Stat("obj"); err != nil || st.Stripes != 3 {
			t.Fatalf("obj has %d stripes (err %v), want 3", st.Stripes, err)
		}
		// Block size is not exposed; a fresh put shows which one is in use.
		if err := s2.Put("again", want); err != nil {
			t.Fatal(err)
		}
		if st, err := s2.Stat("again"); err != nil || st.Stripes != 3 {
			t.Fatalf("put after reopen made %d stripes (err %v), want 3 at 512-byte blocks", st.Stripes, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, LegacyStateFile)); err == nil {
		t.Fatalf("%s was written", LegacyStateFile)
	}
}

// TestMetaFlagRelocatesPlane: -meta puts the plane elsewhere, and the
// store directory remembers where.
func TestMetaFlagRelocatesPlane(t *testing.T) {
	root := t.TempDir()
	dir, metaDir := filepath.Join(root, "st"), filepath.Join(root, "elsewhere")
	s1, err := parseFlags(t, "-dir", dir, "-meta", metaDir).OpenOrCreate(8, 512, Rates{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("obj", payload(100)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "meta")); err == nil {
		t.Fatal("a default plane was created next to the relocated one")
	}
	sf := parseFlags(t, "-dir", dir)
	if got := sf.MetaDir(); got != metaDir {
		t.Fatalf("MetaDir() = %s, want the remembered %s", got, metaDir)
	}
	s2, err := sf.Open(Rates{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Get("obj"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// -meta never moves an existing store's plane: pointing it somewhere
	// with no plane is refused by both entry points, nothing is created
	// there, and the store still finds its own plane afterwards.
	other := filepath.Join(root, "other")
	moved := parseFlags(t, "-dir", dir, "-meta", other)
	if s, err := moved.OpenOrCreate(8, 512, Rates{}); err == nil || !strings.Contains(err.Error(), metaDir) {
		t.Fatalf("OpenOrCreate with a different -meta: store %v, err %v, want an error naming %s", s != nil, err, metaDir)
	}
	if s, err := moved.Open(Rates{}); err == nil {
		t.Fatalf("Open with a different -meta: store %v, no error", s != nil)
	}
	if _, err := os.Stat(other); err == nil {
		t.Fatal("a refused -meta still created a plane")
	}
	s3, err := parseFlags(t, "-dir", dir).Open(Rates{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, _, err := s3.Get("obj"); err != nil {
		t.Fatalf("object lost after a refused -meta: %v", err)
	}
}

// TestFailedCreateIsRetriedAsCreate: a create that was refused, or that
// died after the plane's WAL appeared but before the store was marked
// created, leaves a directory the next OpenOrCreate still creates in —
// with its own flags' geometry, not defaults recorded by accident.
func TestFailedCreateIsRetriedAsCreate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	if s, err := parseFlags(t, "-dir", dir).OpenOrCreate(8, -1, Rates{}); err == nil {
		t.Fatalf("negative block size created a store (%v)", s != nil)
	}
	if _, err := parseFlags(t, "-dir", dir).Open(Rates{}); err == nil {
		t.Fatal("a refused create left something Open accepts")
	}
	// An empty plane, as a crash between opening the WAL and committing
	// the geometry record leaves it.
	db, err := meta.Open(meta.Options{Dir: filepath.Join(dir, "meta")})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := parseFlags(t, "-dir", dir, "-code", "rs", "-nodes", "16").OpenOrCreate(4, 512, Rates{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Codec().Name() != "RS(10,4)" || s.Nodes() != 16 || s.Racks() != 4 {
		t.Fatalf("retried create made %s over %d nodes / %d racks, want RS(10,4) over 16 / 4", s.Codec().Name(), s.Nodes(), s.Racks())
	}
}

// TestOpenRejectsMissingAndLegacyStores: Open never creates, and a
// directory that holds only the pre-plane state blob is refused by both
// entry points with ErrLegacyFormat rather than imported or overwritten.
func TestOpenRejectsMissingAndLegacyStores(t *testing.T) {
	dir := t.TempDir()
	if _, err := parseFlags(t, "-dir", dir).Open(Rates{}); err == nil || errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("Open of an empty directory: err %v, want a plain no-store error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "meta")); err == nil {
		t.Fatal("a failed Open left a plane behind")
	}

	blob := filepath.Join(dir, LegacyStateFile)
	if err := os.WriteFile(blob, []byte(`{"codec":"LRC(10,6,5)","nodes":20,"objects":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sf := parseFlags(t, "-dir", dir)
	if _, err := sf.Open(Rates{}); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("Open of a legacy directory: err %v, want ErrLegacyFormat", err)
	}
	if _, err := sf.OpenOrCreate(8, 512, Rates{}); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("OpenOrCreate of a legacy directory: err %v, want ErrLegacyFormat", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "meta")); err == nil {
		t.Fatal("rejecting a legacy directory still created a plane in it")
	}
}

// TestOpenChecksBackendKind: a store created dir-backed does not open as
// a net store.
func TestOpenChecksBackendKind(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	s, err := parseFlags(t, "-dir", dir).OpenOrCreate(8, 512, Rates{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFlags(t, "-dir", dir, "-backend", "net", "-nodes", "127.0.0.1:1").Open(Rates{}); err == nil {
		t.Fatal("a dir-backed store opened with -backend net")
	}
}

// TestNetOpenChecksAddrsAgainstMembership: a net-backed store grown by
// AddNode reopens from its original, shorter address list (the joined
// node's address is a membership record), and an address list longer
// than the recovered membership table is refused.
func TestNetOpenChecksAddrsAgainstMembership(t *testing.T) {
	addrs := make([]string, 18)
	for i := range addrs {
		srv, addr, err := netblock.StartLocal(store.NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = addr
	}
	dir := filepath.Join(t.TempDir(), "st")
	seed := strings.Join(addrs[:16], ",")
	s, err := parseFlags(t, "-dir", dir, "-backend", "net", "-nodes", seed).OpenOrCreate(8, 512, Rates{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(512*10 + 1)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNode(addrs[16]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = parseFlags(t, "-dir", dir, "-backend", "net", "-nodes", seed).Open(Rates{})
	if err != nil {
		t.Fatalf("reopen from the 16 seed addresses: %v", err)
	}
	if s.Nodes() != 17 {
		t.Fatalf("reopened with %d nodes, want 17", s.Nodes())
	}
	if got, _, err := s.Get("obj"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after reopen: err %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := parseFlags(t, "-dir", dir, "-backend", "net", "-nodes", strings.Join(addrs, ",")).Open(Rates{}); err == nil {
		t.Fatal("18 addresses opened a store with 17 members")
	}
}
