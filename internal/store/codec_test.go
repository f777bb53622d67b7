package store

import (
	"bytes"
	"reflect"
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

// TestStoreCodecAndSimulatorSchemeAgree is the codec-level half of "the
// simulator and the store cannot disagree": for both codes and every
// pattern of ≤ 4 erasures on a full stripe, the lrc.Code.PlanRepair the
// simulator calls (minimal read policy) and the store's Codec plan the
// same reads and make the same light-or-heavy call for every lost block.
func TestStoreCodecAndSimulatorSchemeAgree(t *testing.T) {
	for _, c := range []struct {
		code  *lrc.Code
		codec Codec
	}{
		{lrc.NewXorbas(), NewXorbasCodec()},
		{lrc.NewRS104(), NewRS104Codec()},
	} {
		n := c.codec.NStored()
		if c.code.NStored() != n || c.code.K() != c.codec.K() {
			t.Fatalf("%s vs %s: geometry differs", c.code.Name(), c.codec.Name())
		}
		exists := make([]bool, n)
		for i := range exists {
			exists[i] = true
		}
		patterns, light := 0, 0
		forEachErasure(n, 4, func(erased []int) {
			patterns++
			avail := make([]bool, n)
			for i := range avail {
				avail[i] = true
			}
			for _, i := range erased {
				avail[i] = false
			}
			for _, lost := range erased {
				want, wantErr := c.code.PlanRepair(lost, exists, avail, false)
				reads, isLight, err := c.codec.PlanReads(lost, avail)
				if (err == nil) != (wantErr == nil) || isLight != want.Light || !reflect.DeepEqual(reads, want.Reads) {
					t.Fatalf("%s, erased %v, lost %d: store plans %v light=%v err=%v; simulator plans %v light=%v err=%v",
						c.codec.Name(), erased, lost, reads, isLight, err, want.Reads, want.Light, wantErr)
				}
				if isLight {
					light++
				}
			}
		})
		t.Logf("%s: %d patterns agree, %d light plans", c.codec.Name(), patterns, light)
		if (light > 0) != (len(c.codec.RepairGroups()) > 0) {
			t.Errorf("%s: %d light plans with %d repair groups", c.codec.Name(), light, len(c.codec.RepairGroups()))
		}
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
