package store

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/io.golden and testdata/api.golden from this run")

// ioOps are the backend calls the recorder counts, in print order.
var ioOps = []string{"Read", "ReadInto", "Write", "Delete", "DeleteMany"}

// ioCount is what one op kind cost on one node.
type ioCount struct{ reqs, keys, bytes int64 }

// ioRecorder is a Backend over any Backend that counts every call the
// store makes: requests, keys and bytes per op kind and per node. It
// takes a caller's buffer (ReadInto) and a key list (DeleteMany) the way
// the netblock client does, so the store runs the paths it runs over the
// wire whatever inner implements.
type ioRecorder struct {
	inner Backend
	mu    sync.Mutex
	ops   map[string]map[int]*ioCount
}

func newIORecorder(inner Backend) *ioRecorder {
	return &ioRecorder{inner: inner, ops: make(map[string]map[int]*ioCount)}
}

func (r *ioRecorder) count(op string, node, keys, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ops[op] == nil {
		r.ops[op] = make(map[int]*ioCount)
	}
	c := r.ops[op][node]
	if c == nil {
		c = &ioCount{}
		r.ops[op][node] = c
	}
	c.reqs++
	c.keys += int64(keys)
	c.bytes += int64(n)
}

func (r *ioRecorder) Read(node int, key string) ([]byte, error) {
	b, err := r.inner.Read(node, key)
	r.count("Read", node, 1, len(b))
	return b, err
}

func (r *ioRecorder) ReadInto(node int, key string, dst []byte) ([]byte, error) {
	b, err := r.inner.Read(node, key)
	r.count("ReadInto", node, 1, len(b))
	if err != nil || len(b) > cap(dst) {
		return b, err
	}
	out := dst[:len(b)]
	copy(out, b)
	return out, nil
}

func (r *ioRecorder) Write(node int, key string, data []byte) error {
	r.count("Write", node, 1, len(data))
	return r.inner.Write(node, key, data)
}

func (r *ioRecorder) Delete(node int, key string) error {
	r.count("Delete", node, 1, 0)
	return r.inner.Delete(node, key)
}

func (r *ioRecorder) DeleteMany(node int, keys []string) error {
	r.count("DeleteMany", node, len(keys), 0)
	return deleteMany(r.inner, node, keys)
}

// reqs returns the requests counted since the last take for the given
// op kinds, summed over nodes.
func (r *ioRecorder) reqs(ops ...string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, op := range ops {
		for _, c := range r.ops[op] {
			n += c.reqs
		}
	}
	return n
}

// take renders what was counted since the last take, one line per op
// kind with its per-node breakdown (node=requests/keys/bytes), and
// resets the counts. It also returns the blocks and bytes read.
func (r *ioRecorder) take() (out string, blocksRead, bytesRead int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, op := range ioOps {
		byNode := r.ops[op]
		if len(byNode) == 0 {
			continue
		}
		nodes := make([]int, 0, len(byNode))
		var total ioCount
		for n, c := range byNode {
			nodes = append(nodes, n)
			total.reqs += c.reqs
			total.keys += c.keys
			total.bytes += c.bytes
		}
		sort.Ints(nodes)
		fmt.Fprintf(&b, "  %-10s reqs %4d keys %4d bytes %7d |", op, total.reqs, total.keys, total.bytes)
		for _, n := range nodes {
			c := byNode[n]
			fmt.Fprintf(&b, " %d=%d/%d/%d", n, c.reqs, c.keys, c.bytes)
		}
		b.WriteByte('\n')
		if op == "Read" || op == "ReadInto" {
			blocksRead += total.reqs
			bytesRead += total.bytes
		}
	}
	r.ops = make(map[string]map[int]*ioCount)
	return b.String(), blocksRead, bytesRead
}

// TestIOGolden pins every backend request the store makes for one fixed
// script per codec: one client, one step at a time, a cache larger than
// everything stored (so no count depends on eviction timing) and one
// repair worker. A change to what the store reads, writes or deletes —
// how many requests, which op, on which node, how many bytes — shows up
// as a diff; regenerate with -update only when that is the intent.
func TestIOGolden(t *testing.T) {
	var got bytes.Buffer
	lrcReads := ioScript(t, NewXorbasCodec(), &got)
	rsReads := ioScript(t, NewRS104Codec(), &got)
	for _, r := range []ioRepairs{lrcReads, rsReads} {
		fmt.Fprintf(&got, "%s node-loss repairs: %d blocks rebuilt, %.2f blocks and %.1f bytes read per rebuilt block\n",
			r.codec, r.rebuilt, r.blocksPer(), r.bytesPer())
	}
	fmt.Fprintf(&got, "LRC/RS per rebuilt block: %.3f of the blocks, %.3f of the bytes read\n",
		lrcReads.blocksPer()/rsReads.blocksPer(), lrcReads.bytesPer()/rsReads.bytesPer())

	const path = "testdata/io.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// ioRepairs is what one codec's node-loss repairs read, for the
// golden's closing lines.
type ioRepairs struct {
	codec                          string
	rebuilt, blocksRead, bytesRead int64
}

func (r ioRepairs) blocksPer() float64 { return float64(r.blocksRead) / float64(r.rebuilt) }
func (r ioRepairs) bytesPer() float64  { return float64(r.bytesRead) / float64(r.rebuilt) }

// ioScript runs the golden's script over one codec, writing each step's
// requests to out, and returns what its node-loss repairs read.
func ioScript(t *testing.T, codec Codec, out *bytes.Buffer) ioRepairs {
	const bs = 64
	rec := newIORecorder(NewMemBackend())
	s := newTestStore(t, Config{Codec: codec, Backend: rec, Nodes: 20, BlockSize: bs, CacheBytes: 1 << 20})
	// One worker drains what a pass queued. The decommission step starts
	// it before its first pass, as a running store would: the pass
	// reclaims before it queues, so its deletes do not depend on how far
	// the worker has got.
	rm := NewRepairManager(s, 1)
	sc, rb := NewScrubber(s, rm, 0), NewRebalancer(s, rm, 0)
	drain := func() {
		rm.Start()
		rm.Drain()
		rm.Stop()
		rm = NewRepairManager(s, 1)
		sc, rb = NewScrubber(s, rm, 0), NewRebalancer(s, rm, 0)
	}
	k := codec.K()
	rng := rand.New(rand.NewSource(13))
	objects := map[string][]byte{
		"a": randBytes(rng, 2*k*bs+bs/2),
		"b": randBytes(rng, k*bs),
		"c": randBytes(rng, 2*k*bs),
	}
	step := func(name string) (blocksRead, bytesRead int64) {
		t.Helper()
		lines, blocks, n := rec.take()
		fmt.Fprintf(out, "%s %s\n%s", codec.Name(), name, lines)
		return blocks, n
	}
	check := func(name string) {
		t.Helper()
		got, _, err := s.Get(name)
		if err != nil || !bytes.Equal(got, objects[name]) {
			t.Fatalf("%s: Get %s: err %v, exact %v", codec.Name(), name, err, bytes.Equal(got, objects[name]))
		}
	}
	nodeOf := func(name string, stripe, pos int) int {
		t.Helper()
		node, _, err := s.BlockLocation(name, stripe, pos)
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	put := func(name string, data []byte) {
		t.Helper()
		objects[name] = data
		if err := s.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range []string{"a", "b", "c"} {
		put(name, objects[name])
	}
	put("b", randBytes(rng, k*bs-7))
	step("put a, b, c; overwrite b")

	var buf bytes.Buffer
	if _, err := s.GetWriter("a", &buf); err != nil || !bytes.Equal(buf.Bytes(), objects["a"]) {
		t.Fatalf("%s: full GET: %v", codec.Name(), err)
	}
	step("full GET a (cold)")
	buf.Reset()
	if _, err := getRange(s, "a", bs+3, 3*bs, &buf); err != nil || !bytes.Equal(buf.Bytes(), objects["a"][bs+3:4*bs+3]) {
		t.Fatalf("%s: ranged GET a: %v", codec.Name(), err)
	}
	step("ranged GET a (cached)")
	buf.Reset()
	if _, err := getRange(s, "c", int64(k*bs+bs/2), 2*bs, &buf); err != nil || !bytes.Equal(buf.Bytes(), objects["c"][k*bs+bs/2:k*bs+5*bs/2]) {
		t.Fatalf("%s: ranged GET c: %v", codec.Name(), err)
	}
	step("ranged GET c (cold)")

	lost := nodeOf("b", 0, 2)
	s.KillNode(lost)
	if _, info, err := s.Get("b"); err != nil || !info.Degraded {
		t.Fatalf("%s: degraded GET b: err %v, degraded %v", codec.Name(), err, info.Degraded)
	}
	step(fmt.Sprintf("degraded GET b (node %d down)", lost))

	repairs := ioRepairs{codec: codec.Name()}
	for _, kill := range [][]int{{2}, {1, 6}, {3, 7, 12}} {
		nodes := make([]int, len(kill))
		for i, pos := range kill {
			nodes[i] = nodeOf("a", 0, pos)
		}
		if len(kill) > 1 { // the single loss is the node the degraded GET found down
			for _, n := range nodes {
				s.KillNode(n)
			}
		} else {
			nodes[0] = lost
		}
		before := s.Metrics().RepairedBlocks
		sc.ScrubPresence()
		drain()
		blocks, n := step(fmt.Sprintf("ScrubPresence + Drain, %d lost (nodes %v down)", len(kill), nodes))
		repairs.blocksRead += blocks
		repairs.bytesRead += n
		repairs.rebuilt += s.Metrics().RepairedBlocks - before
		for _, n := range nodes {
			s.ReviveNode(n)
		}
	}
	for name := range objects {
		check(name)
	}
	rec.take() // the checks above read through the cache

	node, key, err := s.BlockLocation("c", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.inner.Write(node, key, FrameBlock(randBytes(rng, bs))); err != nil {
		t.Fatal(err)
	}
	if rep := sc.ScrubOnce(); rep.Corrupt != 1 || rep.Missing != 0 {
		t.Fatalf("%s: full scrub: %+v, want 1 corrupt", codec.Name(), rep)
	}
	step("ScrubOnce (one silent corruption)")
	drain()
	step("Drain (rebuild the silent corruption)")

	drainer := nodeOf("a", 1, 0)
	if err := s.Decommission(drainer); err != nil {
		t.Fatal(err)
	}
	rm.Start()
	rb.RebalanceOnce()
	drain()
	if rep := rb.RebalanceOnce(); rep.Remaining != 0 || s.MemberState(drainer) != NodeDead {
		t.Fatalf("%s: drain of node %d: %+v", codec.Name(), drainer, rep)
	}
	step(fmt.Sprintf("decommission node %d + drain", drainer))

	joiner, err := s.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	rb.RebalanceOnce()
	if s.MemberState(joiner) != NodeActive || s.BlocksPerNode()[joiner] == 0 {
		t.Fatalf("%s: joiner %d: state %v, %d blocks", codec.Name(), joiner, s.MemberState(joiner), s.BlocksPerNode()[joiner])
	}
	step(fmt.Sprintf("join node %d + fill", joiner))

	put("a", randBytes(rng, k*bs+1))
	if err := s.Delete("c"); err != nil {
		t.Fatal(err)
	}
	delete(objects, "c")
	step("overwrite a, delete c")
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	step("Reclaim")
	for name := range objects {
		check(name)
	}
	return repairs
}
