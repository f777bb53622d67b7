package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/gf"
	"repro/internal/lrc"
	"repro/internal/meta"
	"repro/internal/netblock"
	"repro/internal/rs"
	"repro/internal/store"
)

// The layer ladder pushes the same bytes — ladderBytes of the pattern
// stream in largeBlock blocks — through each layer's public functions,
// one client, one layer at a time, from the field kernel up to HTTP.
// Reading down a ladder shows what each layer adds to the cost of the
// same payload.

// ladder holds the rung results by per-layer metric name.
type ladder struct {
	values map[string]float64
	bytes  int   // the object every store and gateway rung moves
	err    error // first rung that failed
}

// set records one rung.
func (l *ladder) set(name string, v float64, err error) {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	l.values[name] = v
}

// The three ladders, bottom rung first.
var (
	putLadder    = []string{"gf.muladd_mbps", "lrc.encode_mbps", "rs.encode_mbps", "store.frame_mbps", "store.put_mem_mbps", "store.put_dir_mbps", "netblock.write_mbps", "store.put_net_mbps", "gateway.put_mbps_1c"}
	getLadder    = []string{"store.unframe_mbps", "store.get_mem_mbps", "netblock.read_mbps", "store.get_net_mbps", "gateway.get_mbps_1c"}
	repairLadder = []string{"gf.xor_mbps", "lrc.light_repair_mbps", "rs.repair1_mbps", "store.repair_mem_mbps", "store.repair_net_mbps"}
	latencyRungs = []string{"meta.get_ns", "meta.commit_us", "netblock.rtt_us", "gateway.head_us"}
)

func (l *ladder) print(w io.Writer) {
	unit := make(map[string]string)
	for _, d := range perLayer {
		unit[d.Name] = d.Unit
	}
	for _, t := range []struct {
		title string
		rungs []string
	}{
		{fmt.Sprintf("PUT ladder (%d MiB of pattern bytes, one client)", l.bytes>>20), putLadder},
		{"GET ladder (the same bytes)", getLadder},
		{"repair ladder (the same bytes, one lost block per stripe)", repairLadder},
		{"fixed costs per operation", latencyRungs},
	} {
		fmt.Fprintf(w, "\n%s\n", t.title)
		for _, name := range t.rungs {
			fmt.Fprintf(w, "  %-26s %12.1f %s\n", name, l.values[name], unit[name])
		}
	}
}

// loopFor calls fn until d has passed (at least once) and returns the
// number of calls and the time they took.
func loopFor(d time.Duration, fn func(i int) error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < d {
		if err := fn(n); err != nil {
			return n, time.Since(start), err
		}
		n++
	}
	return n, time.Since(start), nil
}

// mbps times fn, which moves bytesPerCall each call.
func mbps(d time.Duration, bytesPerCall int, fn func(i int) error) (float64, error) {
	n, el, err := loopFor(d, fn)
	return float64(n) * float64(bytesPerCall) / 1e6 / el.Seconds(), err
}

// perCall is the mean time of one fn call, in the given unit.
func perCall(d time.Duration, unit time.Duration, fn func(i int) error) (float64, error) {
	n, el, err := loopFor(d, fn)
	return float64(el) / float64(unit) / float64(n), err
}

// cmpWriter verifies a stream against the expected bytes as it is written.
type cmpWriter struct {
	want []byte
	n    int
}

func (c *cmpWriter) Write(p []byte) (int, error) {
	if c.n+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.n:c.n+len(p)]) {
		return 0, fmt.Errorf("read differs from pattern in bytes [%d,%d)", c.n, c.n+len(p))
	}
	c.n += len(p)
	return len(p), nil
}

// runLadder runs every rung, giving each an equal share of total.
func runLadder(e *env, total time.Duration) (*ladder, error) {
	bs := e.sz.largeBlock
	size := e.sz.ladderBytes
	obj := newContent(e.seed, size).object("ladder", 1, size)
	blocks := make([][]byte, size/bs)
	for i := range blocks {
		blocks[i] = obj[i*bs : (i+1)*bs]
	}
	const rungCount = 30 // a little more than the rungs below, leaving room for their set-up
	d := total / rungCount
	l := &ladder{values: make(map[string]float64), bytes: size}

	// gf: the two kernels every encode and repair is made of.
	f := gf.MustNew(8)
	acc := make([]byte, bs)
	v, rerr := mbps(d, bs, func(i int) error { f.MulAddSlice(0x53, acc, blocks[i%len(blocks)]); return nil })
	l.set("gf.muladd_mbps", v, rerr)
	v, rerr = mbps(d, bs, func(i int) error { gf.XORSlice(acc, blocks[i%len(blocks)]); return nil })
	l.set("gf.xor_mbps", v, rerr)

	// lrc and rs: one stripe of ten data blocks.
	data := blocks[:10]
	xorbas := lrc.NewXorbas()
	lrcParity := freshBlocks(xorbas.NStored()-xorbas.K(), bs)
	v, rerr = mbps(d, 10*bs, func(int) error { return xorbas.EncodeInto(data, lrcParity) })
	l.set("lrc.encode_mbps", v, rerr)
	rs104, rerr := rs.New256(10, 14)
	if rerr != nil {
		return nil, rerr
	}
	rsParity := freshBlocks(4, bs)
	v, rerr = mbps(d, 10*bs, func(int) error { return rs104.EncodeInto(data, rsParity) })
	l.set("rs.encode_mbps", v, rerr)

	// Single-block repair, the paper's common case: block 3 is lost.
	const lost = 3
	rebuilt := [][]byte{make([]byte, bs)}
	lrcStripe := append(append([][]byte{}, data...), lrcParity...)
	lrcStripe[lost] = nil
	v, rerr = mbps(d, bs, func(int) error {
		_, light, err := xorbas.ReconstructManyInto(lrcStripe, []int{lost}, rebuilt)
		if err == nil && !light[0] {
			err = errors.New("single-block repair was not light")
		}
		return err
	})
	if rerr == nil && !bytes.Equal(rebuilt[0], data[lost]) {
		rerr = errors.New("rebuilt block differs")
	}
	l.set("lrc.light_repair_mbps", v, rerr)
	rsStripe := append(append([][]byte{}, data...), rsParity...)
	rsStripe[lost] = nil
	v, rerr = mbps(d, bs, func(int) error { return rs104.ReconstructColsInto(rsStripe, []int{lost}, rebuilt) })
	if rerr == nil && !bytes.Equal(rebuilt[0], data[lost]) {
		rerr = errors.New("rebuilt block differs")
	}
	l.set("rs.repair1_mbps", v, rerr)

	// store framing: CRC32C over every block, both directions.
	frame := make([]byte, 0, bs+4)
	v, rerr = mbps(d, bs, func(i int) error { frame = store.AppendFrame(frame[:0], blocks[i%len(blocks)]); return nil })
	l.set("store.frame_mbps", v, rerr)
	v, rerr = mbps(d, bs, func(int) error { _, err := store.UnframeBlock(frame); return err })
	l.set("store.unframe_mbps", v, rerr)

	if err := ladderMeta(e, d, l); err != nil {
		return nil, err
	}
	if err := ladderNetblock(d, frame, l); err != nil {
		return nil, err
	}
	// The store on three backends: memory, directories (fsync per block),
	// and the loopback fleet. Memory against fleet is what the wire costs.
	if err := ladderStore(e, d, obj, "mem", store.NewMemBackend(), l); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmpRoot, "blocks-")
	if err != nil {
		return nil, err
	}
	dirBackend, err := store.NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	if err := ladderStore(e, d, obj, "dir", dirBackend, l); err != nil {
		return nil, err
	}
	_, servers, addrs, err := bootFleet(fleetNodes)
	if err != nil {
		return nil, err
	}
	defer closeFleet(servers)
	client, err := netblock.Dial(addrs, netblock.Options{})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if err := ladderStore(e, d, obj, "net", client, l); err != nil {
		return nil, err
	}
	if err := ladderGateway(e, d, obj, l); err != nil {
		return nil, err
	}
	return l, l.err
}

func freshBlocks(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

// ladderMeta times the metadata plane alone: a durable commit of one
// manifest-sized record, and an index lookup.
func ladderMeta(e *env, d time.Duration, l *ladder) error {
	dir, err := os.MkdirTemp(e.tmpRoot, "ladder-meta-")
	if err != nil {
		return err
	}
	db, err := meta.Open(meta.Options{Dir: dir})
	if err != nil {
		return err
	}
	record := bytes.Repeat([]byte{0xA5}, 512)
	key := func(i int) string { return fmt.Sprintf("ladder-%04d", i%1024) }
	v, rerr := perCall(d, time.Microsecond, func(i int) error { return db.Put(key(i), record) })
	l.set("meta.commit_us", v, rerr)
	v, rerr = perCall(d, time.Nanosecond, func(i int) error {
		if _, ok := db.Get(key(0)); !ok {
			return errors.New("committed key not found")
		}
		return nil
	})
	l.set("meta.get_ns", v, rerr)
	return db.Close()
}

// ladderNetblock moves framed blocks to and from one loopback node.
func ladderNetblock(d time.Duration, frame []byte, l *ladder) error {
	srv, addr, err := netblock.StartLocal(store.NewMemBackend())
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := netblock.Dial([]string{addr}, netblock.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	key := func(i int) string { return fmt.Sprintf("blk-%02d", i%64) }
	v, rerr := mbps(d, len(frame), func(i int) error { return c.Write(0, key(i), frame) })
	l.set("netblock.write_mbps", v, rerr)
	v, rerr = mbps(d, len(frame), func(int) error {
		b, err := c.Read(0, key(0))
		if err == nil && !bytes.Equal(b, frame) {
			err = errors.New("block read back differs")
		}
		return err
	})
	l.set("netblock.read_mbps", v, rerr)
	small := frame[:min(len(frame), 4<<10)]
	v, rerr = perCall(d, time.Microsecond, func(int) error { return c.Write(0, "small", small) })
	l.set("netblock.rtt_us", v, rerr)
	return nil
}

// ladderStore times put, get and single-node repair of the ladder object
// on a store over the given backend, no HTTP in front. The dir backend
// is timed for put only: nothing end to end runs on it.
func ladderStore(e *env, d time.Duration, obj []byte, kind string, backend store.Backend, l *ladder) (err error) {
	metaDir, err := os.MkdirTemp(e.tmpRoot, "ladder-"+kind+"-")
	if err != nil {
		return err
	}
	st, err := store.New(store.Config{Backend: backend, Nodes: fleetNodes, Racks: 8, BlockSize: e.sz.largeBlock, MetaDir: metaDir})
	if err != nil {
		return err
	}
	rm := store.NewRepairManager(st, 0)
	rm.Start()
	defer func() {
		rm.Stop()
		err = errors.Join(err, st.Close())
	}()
	v, rerr := mbps(d, len(obj), func(int) error { return st.PutReader("ladder", bytes.NewReader(obj)) })
	l.set("store.put_"+kind+"_mbps", v, rerr)
	if kind == "dir" || rerr != nil {
		return nil
	}
	v, rerr = mbps(d, len(obj), func(int) error {
		_, err := st.GetWriter("ladder", &cmpWriter{want: obj})
		return err
	})
	l.set("store.get_"+kind+"_mbps", v, rerr)
	sc := store.NewScrubber(st, rm, 0)
	before := st.Metrics().RepairedBytes
	_, el, rerr := loopFor(d, func(i int) error {
		victim := i % fleetNodes
		st.KillNode(victim)
		sc.ScrubPresence()
		rm.Drain()
		st.ReviveNode(victim)
		return nil
	})
	repaired := st.Metrics().RepairedBytes - before
	if rerr == nil && repaired == 0 {
		rerr = errors.New("node kills repaired nothing")
	}
	l.set("store.repair_"+kind+"_mbps", float64(repaired)/1e6/el.Seconds(), rerr)
	return nil
}

// ladderGateway is the top rung: the same object over HTTP through the
// whole stack, one client, cache off so the GET rung is comparable with
// the store rungs below it.
func ladderGateway(e *env, d time.Duration, obj []byte, l *ladder) (err error) {
	stk, err := bootStack(stackConfig{blockSize: e.sz.largeBlock}, e.tmpRoot)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stk.close()) }()
	lg := newLoadGen(stk.base, 1, e.seed, nil)
	defer lg.close()
	buf := make([]byte, 256<<10)
	do := func(rq request) error {
		var cs clientStats
		lg.do(rq, &cs, buf)
		return cs.err
	}
	v, rerr := mbps(d, len(obj), func(int) error { return do(request{method: http.MethodPut, key: "ladder", body: obj}) })
	l.set("gateway.put_mbps_1c", v, rerr)
	v, rerr = mbps(d, len(obj), func(int) error { return do(request{method: http.MethodGet, key: "ladder", want: obj}) })
	l.set("gateway.get_mbps_1c", v, rerr)
	v, rerr = perCall(d, time.Microsecond, func(int) error { return do(request{method: http.MethodHead, key: "ladder", want: obj}) })
	l.set("gateway.head_us", v, rerr)
	return nil
}
