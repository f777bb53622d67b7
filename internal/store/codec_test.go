package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/lrc"
)

// TestBuiltInCodecNames pins the names the metadata plane records in
// c/config: a plane written by any earlier binary must keep resolving.
func TestBuiltInCodecNames(t *testing.T) {
	for _, c := range []struct {
		codec   Codec
		name    string
		nStored int
		groups  int
	}{
		{NewXorbasCodec(), "LRC(10,6,5)", 16, 3},
		{NewRS104Codec(), "RS(10,4)", 14, 0},
	} {
		if got := c.codec.Name(); got != c.name {
			t.Errorf("codec name %q, want %q", got, c.name)
		}
		if c.codec.K() != 10 || c.codec.NStored() != c.nStored || len(c.codec.RepairGroups()) != c.groups {
			t.Errorf("%s: k=%d stored=%d groups=%d, want 10, %d, %d", c.name, c.codec.K(), c.codec.NStored(), len(c.codec.RepairGroups()), c.nStored, c.groups)
		}
		back, err := codecByName(c.name)
		if err != nil || back.Name() != c.name {
			t.Errorf("codecByName(%q): %v, %v", c.name, back, err)
		}
	}
}

// forEachErasure calls fn with every subset of {0..n-1} of size 1..max.
// The slice is reused between calls.
func forEachErasure(n, max int, fn func(erased []int)) {
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) > 0 {
			fn(chosen)
		}
		if len(chosen) == max {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, make([]int, 0, max))
}

// TestRepairabilitySweep holds the store's datapath to the paper's code
// claims pattern by pattern: every set of 1-6 lost positions of
// LRC(10,6,5) and 1-4 of RS(10,4), each on a fresh one-stripe object
// whose lost positions' nodes are killed. lrc.Code is the oracle:
// ReconstructMany says which positions the code rebuilds, PlanRepair
// (minimal policy) what each one reads. The GET is byte-exact exactly
// when every lost data position is rebuilt (else ErrUnrecoverable),
// degraded exactly when one is lost, and reads the available data plus
// the lost data's plans. A presence scrub and repair drain rebuild
// exactly what the code can, reading the union of the plans; a full
// scrub then finds only what it cannot. So a single loss reads 5 blocks
// on LRC and 10 on RS, and any 4 losses are repaired. A light count is
// bounded below, not pinned: a block rebuilt in the same decode can
// complete another's light recipe. Under -race or -short a seeded tenth
// of the patterns runs, every single loss included.
func TestRepairabilitySweep(t *testing.T) {
	const bs = 16
	sample := raceEnabled || testing.Short()
	rng := rand.New(rand.NewSource(52))
	for _, c := range []struct {
		code    *lrc.Code
		codec   Codec
		maxLost int
	}{
		{lrc.NewXorbas(), NewXorbasCodec(), 6},
		{lrc.NewRS104(), NewRS104Codec(), 4},
	} {
		k, n := c.code.K(), c.code.NStored()
		data := randBytes(rng, k*bs)
		shards := make([][]byte, k)
		for i := range shards {
			shards[i] = data[i*bs : (i+1)*bs]
		}
		full, err := c.code.Encode(shards)
		if err != nil {
			t.Fatal(err)
		}
		exists := make([]bool, n)
		for i := range exists {
			exists[i] = true
		}
		patterns := 0
		forEachErasure(n, c.maxLost, func(lost []int) {
			if sample && len(lost) > 1 && rng.Intn(10) != 0 {
				return
			}
			patterns++
			avail := append([]bool(nil), exists...)
			stripe := append([][]byte(nil), full...)
			for _, pos := range lost {
				avail[pos], stripe[pos] = false, nil
			}
			rebuilt, _, _ := c.code.ReconstructMany(stripe, lost)
			canRebuild, dataLost, dataBack := 0, false, true
			for i, pos := range lost {
				if rebuilt[i] != nil {
					canRebuild++
				}
				if pos < k {
					dataLost = true
					dataBack = dataBack && rebuilt[i] != nil
				}
			}
			getReads, repairReads, lightPlans := make(map[int]bool), make(map[int]bool), int64(0)
			for pos := 0; pos < k; pos++ {
				if avail[pos] {
					getReads[pos] = true
				}
			}
			for _, pos := range lost {
				plan, err := c.code.PlanRepair(pos, exists, avail, false)
				if err != nil {
					continue
				}
				if plan.Light {
					lightPlans++
				}
				for _, j := range plan.Reads {
					repairReads[j] = true
					if pos < k {
						getReads[j] = true
					}
				}
			}

			s := newTestStore(t, Config{Codec: c.codec, BlockSize: bs})
			defer s.Close()
			if err := s.Put("o", data); err != nil {
				t.Fatal(err)
			}
			for _, pos := range lost {
				node, _, err := s.BlockLocation("o", 0, pos)
				if err != nil {
					t.Fatal(err)
				}
				s.KillNode(node)
			}
			if got := s.LiveNodes(); got != s.Nodes()-len(lost) {
				t.Fatalf("%s, lost %v: %d nodes live; two lost positions share a node", c.codec.Name(), lost, got)
			}
			got, info, err := s.Get("o")
			if dataBack && (err != nil || !bytes.Equal(got, data)) || !dataBack && !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("%s, lost %v: GET err %v, byte-exact %v; the code rebuilds every lost data block: %v",
					c.codec.Name(), lost, err, bytes.Equal(got, data), dataBack)
			}
			if info.Degraded != dataLost || info.BlocksRead != int64(len(getReads)) {
				t.Fatalf("%s, lost %v: GET degraded %v, read %d blocks; want %v, %d",
					c.codec.Name(), lost, info.Degraded, info.BlocksRead, dataLost, len(getReads))
			}

			rm := NewRepairManager(s, 1)
			rm.Start()
			sc := NewScrubber(s, rm, 0)
			sc.ScrubPresence()
			rm.Drain()
			rm.Stop()
			m := s.Metrics()
			if m.RepairedBlocks != int64(canRebuild) || m.RepairBlocksRead != int64(len(repairReads)) ||
				m.RepairsLight+m.RepairsHeavy != m.RepairedBlocks || m.RepairsLight < lightPlans {
				t.Fatalf("%s, lost %v: repair rebuilt %d blocks (%d light, %d heavy) reading %d; want %d rebuilt (at least %d light) reading %d",
					c.codec.Name(), lost, m.RepairedBlocks, m.RepairsLight, m.RepairsHeavy, m.RepairBlocksRead,
					canRebuild, lightPlans, len(repairReads))
			}
			if rep := sc.ScrubOnce(); rep.Missing != len(lost)-canRebuild || rep.Corrupt != 0 {
				t.Fatalf("%s, lost %v: scrub after the repair found %d missing, %d corrupt; want %d, 0",
					c.codec.Name(), lost, rep.Missing, rep.Corrupt, len(lost)-canRebuild)
			}
		})
		t.Logf("%s: %d loss patterns", c.codec.Name(), patterns)
	}
}

// statsWriter snapshots the store's counters from inside the Write that
// completes the body — the instant a client has every byte.
type statsWriter struct {
	s    *Store
	want int
	buf  bytes.Buffer
	seen Metrics
}

func (w *statsWriter) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	if w.buf.Len() == w.want {
		w.seen = w.s.Metrics()
	}
	return n, err
}

// TestReadCountersLandBeforeLastByte: a GET's block, byte, repair and
// degraded counts are in Metrics() by the time its last byte is written,
// not after — a client that has the whole body must find its GET there.
func TestReadCountersLandBeforeLastByte(t *testing.T) {
	const bl = 128
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	want := bytes.Repeat([]byte("xorbas!"), 3*10*bl/7+5) // three stripes and a tail
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	node, _, err := s.BlockLocation("obj", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(node)
	before := s.Metrics()
	w := &statsWriter{s: s, want: len(want)}
	info, err := s.GetWriter("obj", w)
	if err != nil || !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatalf("GetWriter: err %v, equal %v", err, bytes.Equal(w.buf.Bytes(), want))
	}
	if !info.Degraded || info.BlocksRead == 0 {
		t.Fatalf("read info %+v, want a degraded read", info)
	}
	seen, after := w.seen, s.Metrics()
	if got := seen.ReadBlocks - before.ReadBlocks; got != info.BlocksRead {
		t.Errorf("inside the last Write Metrics() shows %d of this GET's %d block reads", got, info.BlocksRead)
	}
	if got := seen.ReadBytes - before.ReadBytes; got != info.BytesRead {
		t.Errorf("inside the last Write Metrics() shows %d of this GET's %d bytes read", got, info.BytesRead)
	}
	if got := seen.DegradedReads - before.DegradedReads; got != 1 {
		t.Errorf("inside the last Write Metrics() shows %d degraded reads, want 1", got)
	}
	if after.ReadBlocks != seen.ReadBlocks || after.ReadBytes != seen.ReadBytes || after.DegradedReads != seen.DegradedReads {
		t.Errorf("read counters moved after the last byte: blocks %d → %d, bytes %d → %d, degraded %d → %d",
			seen.ReadBlocks, after.ReadBlocks, seen.ReadBytes, after.ReadBytes, seen.DegradedReads, after.DegradedReads)
	}
}
