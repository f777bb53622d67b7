package store_test

import (
	"testing"
	"time"

	"repro/internal/netblock"
	"repro/internal/pattern"
	"repro/internal/store"
)

// TestRepairWireBytesLRCvsRS measures the paper's repair-traffic claim
// (Figs 4-6) in wire bytes: over a loopback fleet of block servers, a
// node is lost, so each stripe with a block on it loses exactly that
// block. Per repaired block the drain receives the frames of 5 source
// blocks on LRC(10,6,5) and 10 on RS(10,4). Everything else it receives
// is 5-byte response headers: one per source read and per write-back,
// and one for the DeleteMany of the Reclaim after the drain, which
// deletes every replaced copy on the victim at once. The store only
// marks the node dead, so its server stays up to answer that delete.
func TestRepairWireBytesLRCvsRS(t *testing.T) {
	const nodes, bs, stripes, hdr = 20, 4 << 10, 8, 5
	for _, c := range []struct {
		codec   store.Codec
		sources int64
	}{
		{store.NewXorbasCodec(), 5},
		{store.NewRS104Codec(), 10},
	} {
		addrs := make([]string, nodes)
		for i := range addrs {
			srv, addr, err := netblock.StartLocal(store.NewMemBackend())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[i] = addr
		}
		client, err := netblock.Dial(addrs, netblock.Options{DialTimeout: time.Second, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		s, err := store.New(store.Config{Codec: c.codec, Backend: client, Nodes: nodes, BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutReader("obj", pattern.NewReader(int64(stripes*c.codec.K()*bs))); err != nil {
			t.Fatal(err)
		}
		received := func() (sum int64) {
			_, recv := client.WireTraffic()
			for _, r := range recv {
				sum += r
			}
			return sum
		}
		victim, _, err := s.BlockLocation("obj", 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.KillNode(victim)
		rm := store.NewRepairManager(s, 1)
		rm.Start()
		before := received()
		store.NewScrubber(s, rm, 0).ScrubPresence()
		rm.Drain()
		if err := s.Reclaim(); err != nil {
			t.Fatal(err)
		}
		got := received() - before
		rm.Stop()
		m := s.Metrics()
		if m.RepairedBlocks < 2 || m.RepairBlocksRead != c.sources*m.RepairedBlocks {
			t.Fatalf("%s: repaired %d blocks reading %d, want at least 2 reading %d each",
				c.codec.Name(), m.RepairedBlocks, m.RepairBlocksRead, c.sources)
		}
		frame := int64(hdr + 4 + bs)
		if want := m.RepairedBlocks*(c.sources*frame+hdr) + hdr; got != want {
			t.Errorf("%s: the drain received %d wire bytes for %d repaired blocks, want %d (%d source frames and a header each, one delete header)",
				c.codec.Name(), got, m.RepairedBlocks, want, c.sources)
		}
		t.Logf("%s: %d bytes received per repaired %d-byte block", c.codec.Name(), got/m.RepairedBlocks, bs)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
