// Package cliutil is the shared plumbing between the binaries that open
// a store from command-line flags: xorbasctl's store subcommands, the
// xorbasd HTTP gateway, and anything after them. One definition of the
// -dir/-backend/-nodes/-meta/-code contract — how a store directory, its
// block backend, its metadata plane and its codec are described and
// remembered — so the tools cannot drift apart on what a store path
// means.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/netblock"
	"repro/internal/store"
)

// StoreFlags holds the parsed shared store flags. Register it on a
// FlagSet with RegisterStoreFlags, parse, then Open/OpenOrCreate.
type StoreFlags struct {
	Dir     *string
	Backend *string
	Nodes   *string
	Meta    *string
	Code    *string
}

// RegisterStoreFlags registers the shared store flags on fs:
//
//	-dir      store directory (required)
//	-backend  dir | net
//	-nodes    node count (dir) or host:port list (net)
//	-meta     where a new store puts its metadata plane; "" = <dir>/meta
//	-code     lrc | rs (first use only)
func RegisterStoreFlags(fs *flag.FlagSet) *StoreFlags {
	return &StoreFlags{
		Dir:     fs.String("dir", "", "store directory"),
		Backend: fs.String("backend", "dir", "block backend: dir (subdirectories under -dir) or net (TCP block servers)"),
		Nodes:   fs.String("nodes", "20", "dir backend: simulated node count (first use only); net backend: comma-separated host:port list, one address per node"),
		Meta:    fs.String("meta", "", "where a new store keeps its metadata plane (WAL + checkpoint: the only durable state besides the blocks), default <dir>/meta; an existing store remembers its own and never moves it"),
		Code:    fs.String("code", "lrc", "erasure code on first use: lrc = LRC(10,6,5), rs = RS(10,4)"),
	}
}

// MetaDir resolves -meta: an explicit directory wins, then the plane
// the store directory remembers (the marker a relocated store was
// created with), then the default <dir>/meta.
func (f *StoreFlags) MetaDir() string {
	if *f.Meta != "" {
		return *f.Meta
	}
	return f.recordedMetaDir()
}

func (f *StoreFlags) recordedMetaDir() string {
	if b, err := os.ReadFile(metaMarkerPath(*f.Dir)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return filepath.Join(*f.Dir, "meta")
}

// codec resolves -code into a constructor.
func (f *StoreFlags) codec() (store.Codec, error) {
	switch *f.Code {
	case "", "lrc":
		return store.NewXorbasCodec(), nil
	case "rs":
		return store.NewRS104Codec(), nil
	default:
		return nil, fmt.Errorf("unknown -code %q (want lrc or rs)", *f.Code)
	}
}

// Rates bundles the resource budgets an open threads into the store:
// bytes/sec for the two paced background datapaths (Repair: every block
// move — repairs, drain copies, joiner fills; Scrub: the integrity walk;
// 0 = unlimited — foreground gets are never paced), plus the hot-block
// read cache capacity.
type Rates struct {
	Repair int64
	Scrub  int64
	// CacheBytes is a capacity, not a rate: resident bytes for the
	// store's hot-block read cache (store.Config.CacheBytes). 0 = no
	// cache.
	CacheBytes int64
}

// LegacyStateFile is the JSON blob that store directories kept their
// manifests in before the metadata plane existed. It is never written
// any more; a directory that has one and no plane is rejected.
const LegacyStateFile = "store.json"

// ErrLegacyFormat reports a store directory in the pre-plane format.
var ErrLegacyFormat = errors.New("pre-plane format, not supported")

// Open opens the existing store the parsed flags describe. Codec, node
// count, racks and block size come back from the plane's geometry
// record, so -code and a dir backend's -nodes are not consulted. Save
// with s.Close(): everything acked is already in the plane's WAL, Close
// only checkpoints it.
func (f *StoreFlags) Open(r Rates) (*store.Store, error) {
	spec, metaDir, err := f.resolve()
	if err != nil {
		return nil, err
	}
	kind := f.createdWith()
	if kind == "" {
		return nil, fmt.Errorf("no store at %s (run `store put` first)", *f.Dir)
	}
	return f.reopen(kind, spec, metaDir, r)
}

// OpenOrCreate opens the store at -dir, creating an empty one with the
// -code codec, the -nodes count and the given racks and block size when
// the directory holds no store yet. Those are recorded in the new plane
// and ignored on every later open; -meta places a new store's plane and
// is remembered in the directory, it never moves an existing one.
func (f *StoreFlags) OpenOrCreate(racks, blockSize int, r Rates) (*store.Store, error) {
	spec, metaDir, err := f.resolve()
	if err != nil {
		return nil, err
	}
	if kind := f.createdWith(); kind != "" {
		return f.reopen(kind, spec, metaDir, r)
	}
	codec, err := f.codec()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(*f.Dir, 0o755); err != nil {
		return nil, err
	}
	s, err := f.build(spec, metaDir, store.Config{Codec: codec, Nodes: spec.Count, Racks: racks, BlockSize: blockSize}, r)
	if err != nil {
		return nil, err
	}
	// The markers go last, the backend kind last of all: it is what
	// createdWith looks for, so a create that failed or died before this
	// point is retried as a create — with the flags' geometry — rather
	// than reopened as a store whose plane never got its record.
	if *f.Meta != "" {
		err = os.WriteFile(metaMarkerPath(*f.Dir), []byte(metaDir+"\n"), 0o644)
	}
	if err == nil {
		err = os.WriteFile(backendMarkerPath(*f.Dir), []byte(spec.Kind+"\n"), 0o644)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// resolve checks -dir, resolves -backend/-nodes and -meta, and rejects a
// plane-less directory that still holds the old state blob: creating a
// fresh plane next to it would present the directory as an empty store
// and orphan every block in it.
func (f *StoreFlags) resolve() (spec BackendSpec, metaDir string, err error) {
	if *f.Dir == "" {
		return spec, "", fmt.Errorf("need -dir")
	}
	if spec, err = ParseBackendSpec(*f.Backend, *f.Nodes); err != nil {
		return spec, "", err
	}
	metaDir = f.MetaDir()
	if _, err := os.Stat(filepath.Join(*f.Dir, LegacyStateFile)); err == nil && !hasPlane(metaDir) {
		return spec, "", fmt.Errorf("store at %s is a %s without a metadata plane: %w", *f.Dir, LegacyStateFile, ErrLegacyFormat)
	}
	return spec, metaDir, nil
}

// createdWith returns the backend kind the store at -dir was created
// with, "" when the directory holds no store: the backend marker is the
// last thing a successful create writes. It is kept so a net-backed
// store opened without its flags fails fast instead of presenting as a
// dir store with every block missing (and vice versa).
func (f *StoreFlags) createdWith() string {
	b, _ := os.ReadFile(backendMarkerPath(*f.Dir))
	return strings.TrimSpace(string(b))
}

// reopen opens an existing store, with zero geometry so the plane's
// record decides. The plane must be there: a fresh one would present the
// store as empty and orphan its blocks, which is also why -meta pointing
// anywhere but at the store's plane is an error, not a relocation.
func (f *StoreFlags) reopen(kind string, spec BackendSpec, metaDir string, r Rates) (*store.Store, error) {
	if !hasPlane(metaDir) {
		return nil, fmt.Errorf("store at %s exists but there is no metadata plane at %s (it was created with its plane at %s)", *f.Dir, metaDir, f.recordedMetaDir())
	}
	if kind != spec.Kind {
		return nil, fmt.Errorf("store at %s was created with -backend %s; re-run with -backend %s (and -nodes for net)", *f.Dir, kind, kind)
	}
	return f.build(spec, metaDir, store.Config{}, r)
}

// build opens the backend and the store over the plane at metaDir;
// geometry carries the creation-time fields, zero on a reopen.
func (f *StoreFlags) build(spec BackendSpec, metaDir string, geometry store.Config, r Rates) (*store.Store, error) {
	be, err := spec.backend(*f.Dir)
	if err != nil {
		return nil, err
	}
	cfg := geometry
	cfg.Backend = be
	cfg.MetaDir = metaDir
	cfg.RepairRateBytes = r.Repair
	cfg.ScrubRateBytes = r.Scrub
	cfg.CacheBytes = r.CacheBytes
	s, err := store.New(cfg)
	if err != nil {
		return nil, err
	}
	// A grown cluster may legitimately list fewer addresses than the
	// store has nodes: nodes added with `xorbasctl node add` recorded
	// their addresses in the membership plane, and recovery re-registers
	// the tail from those records. More addresses than members is always
	// a misconfiguration.
	if spec.Kind == "net" && len(spec.Addrs) > s.Nodes() {
		s.Close()
		return nil, fmt.Errorf("store has %d nodes but -nodes lists %d addresses", s.Nodes(), len(spec.Addrs))
	}
	return s, nil
}

// hasPlane reports whether metaDir holds a metadata plane. Opening a
// plane creates its WAL segment, so one that ever existed is a
// non-empty directory.
func hasPlane(metaDir string) bool {
	ents, err := os.ReadDir(metaDir)
	return err == nil && len(ents) > 0
}

// BackendSpec is how the CLI reaches block bytes: subdirectories of the
// store directory, or a fleet of TCP block servers.
type BackendSpec struct {
	Kind  string   // "dir" or "net"
	Addrs []string // net: one host:port per store node
	Count int      // node count (net: len(Addrs); dir: first-use count)
}

// ParseBackendSpec interprets -backend and -nodes together: the -nodes
// flag is a node count for the dir backend and an address list for the
// net backend.
func ParseBackendSpec(kind, nodes string) (BackendSpec, error) {
	switch kind {
	case "dir":
		n, err := strconv.Atoi(nodes)
		if err != nil || n < 1 {
			return BackendSpec{}, fmt.Errorf("-backend dir needs -nodes to be a positive node count, got %q", nodes)
		}
		return BackendSpec{Kind: kind, Count: n}, nil
	case "net":
		addrs := strings.Split(nodes, ",")
		for i, a := range addrs {
			addrs[i] = strings.TrimSpace(a)
			if !strings.Contains(addrs[i], ":") {
				return BackendSpec{}, fmt.Errorf("-backend net needs -nodes as host:port,host:port,...; %q has no port", a)
			}
		}
		return BackendSpec{Kind: kind, Addrs: addrs, Count: len(addrs)}, nil
	default:
		return BackendSpec{}, fmt.Errorf("unknown -backend %q (want dir or net)", kind)
	}
}

// backend builds the block backend for a store rooted at dir.
func (bs BackendSpec) backend(dir string) (store.Backend, error) {
	if bs.Kind == "net" {
		return netblock.Dial(bs.Addrs, netblock.Options{})
	}
	return store.NewDirBackend(filepath.Join(dir, "blocks"))
}

// metaMarkerPath records where a store's metadata plane lives when it
// was created with -meta, so later invocations find it without repeating
// the flag.
func metaMarkerPath(dir string) string { return filepath.Join(dir, "metadir") }

func backendMarkerPath(dir string) string { return filepath.Join(dir, "backend") }

// Mbps formats a transfer rate; the CLIs double as quick perf probes.
func Mbps(bytes int64, d time.Duration) string {
	if d <= 0 {
		return "—"
	}
	return fmt.Sprintf("%.1f MB/s", float64(bytes)/1e6/d.Seconds())
}

// WireLine formats the wire-traffic totals, empty for in-process
// backends.
func WireLine(m store.Metrics) string {
	if m.WireSentBytes == 0 && m.WireRecvBytes == 0 {
		return ""
	}
	return fmt.Sprintf("wire: %d bytes sent / %d bytes received\n", m.WireSentBytes, m.WireRecvBytes)
}
